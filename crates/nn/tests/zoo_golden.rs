//! Golden bit-identity pins for the trained model zoo.
//!
//! Every downstream figure, trace and decision is a function of the
//! zoo's evaluation tables, so kernel or scheduling changes in this
//! crate must leave them `to_bits`-identical. These hashes were taken
//! from the serial, pre-optimization trainer; a mismatch means a
//! change altered floating-point results, not just speed.

use cne_nn::train::to_matrix;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_util::SeedSequence;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }
}

fn train(kind: TaskKind, config: &ZooConfig) -> ModelZoo {
    ModelZoo::train(kind, config, &SeedSequence::new(2025))
}

/// Per model: `(name, hash of the eval table, hash of the pool logits)`.
fn zoo_hashes(zoo: &ModelZoo) -> Vec<(String, u64, u64)> {
    let (pool_x, _) = to_matrix(zoo.pool());
    zoo.models()
        .iter()
        .map(|m| {
            let mut eval = Fnv::new();
            for i in 0..m.eval.len() {
                eval.f64(m.eval.loss(i));
                eval.write(&[u8::from(m.eval.is_correct(i))]);
            }
            let mut logits = Fnv::new();
            for &v in m.network.clone().forward(&pool_x).as_slice() {
                logits.f64(v);
            }
            (m.profile.name.clone(), eval.0, logits.0)
        })
        .collect()
}

fn check(zoo: &ModelZoo, golden: &[(&str, u64, u64)]) {
    let got = zoo_hashes(zoo);
    for (name, eval, logits) in &got {
        println!("(\"{name}\", {eval:#018x}, {logits:#018x}),");
    }
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, e, l)| (n.as_str(), *e, *l)).collect();
    assert_eq!(
        got,
        golden,
        "{:?} zoo is no longer bit-identical",
        zoo.kind()
    );
}

#[test]
fn mnist_fast_zoo_is_bit_identical() {
    check(
        &train(TaskKind::MnistLike, &ZooConfig::fast()),
        &[
            ("cnn-small", 0x81af387ba0b2b5e4, 0xbe267fe292aa8c61),
            ("cnn-large", 0xf5c6c37c587bb97f, 0x994b27d071a8db72),
            ("lenet-a", 0xd041e134896dbb47, 0x9a59ae15a0d80d5e),
            ("lenet-b", 0x0376b249a4217c7e, 0xb8e7055f3b0a773a),
            ("mlp-small", 0x31e0d776457a6206, 0xa5a465ab19dcbd3e),
            ("mobile-mini", 0x774662d4d9bec4ff, 0x723b7497ff74769c),
        ],
    );
}

#[test]
fn cifar_fast_zoo_is_bit_identical() {
    check(
        &train(TaskKind::CifarLike, &ZooConfig::fast()),
        &[
            ("cnn-small", 0xdedb5a1d3c6b6c26, 0xbe252538a7397e34),
            ("cnn-large", 0x556579f5ca5b3946, 0xb3b889236a4222f1),
            ("lenet-a", 0xe4172ad6edcf62b3, 0x42d83e00dc9b71f1),
            ("lenet-b", 0x3adba5d8461bf206, 0x17a2f4ee59f08c7e),
            ("mlp-small", 0x96f7c34ab067bf93, 0x51b246f4a75971d7),
            ("mobile-mini", 0x343f66f80ad8c800, 0x3b6f2c69c434820d),
        ],
    );
}

#[test]
fn mnist_default_zoo_is_bit_identical() {
    check(
        &train(TaskKind::MnistLike, &ZooConfig::default()),
        &[
            ("cnn-small", 0xdda2679b790863d4, 0x1579c5731e599271),
            ("cnn-large", 0xfc5099b2873504df, 0xf8296d378c1970f8),
            ("lenet-a", 0xa57f6c01eb9582f4, 0x9e128f8d7c728df8),
            ("lenet-b", 0xc254cea01ecab438, 0x8cf10d1eac6bbdf0),
            ("mlp-small", 0xf29db5c55f06979b, 0x35ed64039f7bfcaf),
            ("mobile-mini", 0x5ff445deac5db94d, 0xfc6dea9458ea7788),
        ],
    );
}

#[test]
fn cifar_default_zoo_is_bit_identical() {
    check(
        &train(TaskKind::CifarLike, &ZooConfig::default()),
        &[
            ("cnn-small", 0x853ace7a78b1b039, 0xdb0543d8ad801ec0),
            ("cnn-large", 0x8994a67f305cf2f6, 0x52cedf9a5f437886),
            ("lenet-a", 0xece7e648d293631f, 0x5a83f66e23d292d7),
            ("lenet-b", 0x2a9f8f0ba169db99, 0x6811a7b5e39f1c5c),
            ("mlp-small", 0x7fe1212ab0c72b27, 0xf390c1cc8eb31c59),
            ("mobile-mini", 0xe090db8f924b6421, 0x4307c9c73b9476ab),
        ],
    );
}

#[test]
fn mnist_fast_quantized_variants_are_bit_identical() {
    let zoo = train(TaskKind::MnistLike, &ZooConfig::fast()).with_quantized_variants(8);
    check(
        &zoo,
        &[
            ("cnn-small", 0x81af387ba0b2b5e4, 0xbe267fe292aa8c61),
            ("cnn-large", 0xf5c6c37c587bb97f, 0x994b27d071a8db72),
            ("lenet-a", 0xd041e134896dbb47, 0x9a59ae15a0d80d5e),
            ("lenet-b", 0x0376b249a4217c7e, 0xb8e7055f3b0a773a),
            ("mlp-small", 0x31e0d776457a6206, 0xa5a465ab19dcbd3e),
            ("mobile-mini", 0x774662d4d9bec4ff, 0x723b7497ff74769c),
            ("cnn-small-q8", 0xd1a1d0e83821537b, 0xb0d5183aa147474b),
            ("cnn-large-q8", 0x77fd579fc9552181, 0x421713999e2a3767),
            ("lenet-a-q8", 0xdbca29102939000b, 0x6f7dbaecb8974af3),
            ("lenet-b-q8", 0xb343ed6c764533dc, 0x6a145fc95846edc8),
            ("mlp-small-q8", 0xcd4de407ff8bfab0, 0xb917b5ae2cc63f9d),
            ("mobile-mini-q8", 0xba296ce0d44052c2, 0x8465a30d81cd6fe1),
        ],
    );
}
