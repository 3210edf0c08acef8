//! Property tests for the hash-once flat probe path: on every backend,
//! [`DictStore::lookup_eq_flat`] must agree with the scalar `lookup_eq`
//! verdict for verdict — through duplicate-heavy envelopes, `Int`/`Float`
//! coercion keys, NULL/EOT keys, and *adversarial hash collisions*
//! (distinct values sharing one `stable_key_hash`, constructed by
//! inverting the hash's multiply-rotate mixing).
//!
//! Cases are generated from the workspace's own seeded [`SimRng`] so the
//! suite is dependency-free and fully reproducible. The SteM-level
//! counterpart — envelope probes at several shard counts against the
//! scalar `Stem::probe` — is a unit test of `stems_core::sharded`.

use std::sync::Arc;
use stems::sim::SimRng;
use stems::storage::{CandidateBuf, DictStore, StoreKind};
use stems::types::{HashedKey, Row, Value};

fn kinds() -> [StoreKind; 5] {
    [
        StoreKind::List,
        StoreKind::Hash,
        StoreKind::Adaptive { threshold: 16 },
        StoreKind::Partitioned {
            partitions: 4,
            mem_resident: 1,
        },
        StoreKind::Sorted,
    ]
}

/// A mixed-type value pool exercising every normalization edge: ints,
/// integral and fractional floats, strings, bools, NULL and EOT.
fn random_value(rng: &mut SimRng) -> Value {
    match rng.below(8) {
        0 | 1 => Value::Int(rng.range_inclusive(0, 12)),
        2 => Value::Float(rng.range_inclusive(0, 12) as f64), // integral: coerces to Int
        3 => Value::Float(rng.range_inclusive(0, 12) as f64 + 0.5),
        4 => Value::str(["a", "b", "cc", "ddd"][rng.below(4) as usize]),
        5 => Value::Bool(rng.below(2) == 0),
        6 => Value::Null,
        _ => Value::Eot,
    }
}

fn assert_flat_eq_scalar(store: &dyn DictStore, col: usize, raw_keys: &[Value], ctx: &str) {
    let keys: Vec<HashedKey> = raw_keys.iter().cloned().map(HashedKey::new).collect();
    let mut buf = CandidateBuf::new();
    store.lookup_eq_flat(col, &keys, &mut buf);
    assert_eq!(buf.num_keys(), raw_keys.len(), "{ctx}");
    for (i, raw) in raw_keys.iter().enumerate() {
        let want = store.lookup_eq(col, raw);
        let got = buf.candidates(i);
        assert_eq!(got.len(), want.len(), "{ctx}: key {raw:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_ref(), w.as_ref(), "{ctx}: key {raw:?}");
        }
    }
}

/// Random mixed-type rows, duplicate-heavy mixed-type envelopes, all five
/// backends: flat ≡ scalar, key for key, row for row.
#[test]
fn flat_lookup_matches_scalar_on_random_envelopes() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(0xF1A7 ^ seed);
        let rows: Vec<Arc<Row>> = (0..rng.below(100))
            .map(|_| Row::shared(vec![random_value(&mut rng), random_value(&mut rng)]))
            .collect();
        // Envelope with heavy key duplication: half the keys repeat an
        // earlier one, exercising span sharing.
        let mut raw_keys: Vec<Value> = Vec::new();
        for _ in 0..rng.below(48) + 1 {
            if !raw_keys.is_empty() && rng.below(2) == 0 {
                let j = rng.below(raw_keys.len() as u64) as usize;
                raw_keys.push(raw_keys[j].clone());
            } else {
                raw_keys.push(random_value(&mut rng));
            }
        }
        for kind in kinds() {
            let mut store = kind.build(&[1]);
            store.insert_batch(rows.clone());
            let ctx = format!("seed {seed} kind {kind:?}");
            assert_flat_eq_scalar(store.as_ref(), 1, &raw_keys, &ctx);
            // The un-indexed column takes each backend's fallback path.
            assert_flat_eq_scalar(store.as_ref(), 0, &raw_keys, &ctx);
        }
    }
}

/// Invert the stable hash's mixing to manufacture a `Float` whose
/// `stable_key_hash` collides with a given `Int`'s while the two are not
/// SQL-equal. `mix(h, w) = (rot5(h) ^ w) * SEED` with odd SEED is
/// invertible mod 2^64.
fn colliding_float(i: i64) -> Option<Value> {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    // Newton iteration for the modular inverse of the odd SEED.
    let mut inv: u64 = SEED;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(SEED.wrapping_mul(inv)));
    }
    debug_assert_eq!(SEED.wrapping_mul(inv), 1);
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    let target = Value::Int(i).stable_key_hash().expect("ints are hashable");
    // Solve mix(mix(0, 3), bits) == target for the float's payload bits.
    let bits = target.wrapping_mul(inv) ^ mix(0, 3).rotate_left(5);
    let f = f64::from_bits(bits);
    let v = Value::Float(f);
    // Floats that normalize to Int would hash down a different branch;
    // skip those (and the accidental true equality) — callers probe
    // several `i` values.
    (v.stable_key_hash() == Some(target) && !v.sql_eq(&Value::Int(i))).then_some(v)
}

/// Adversarial hash-collision rows: two keys with identical
/// `stable_key_hash` must still resolve to disjoint candidate sets (the
/// prehashed index chains and the envelope dedup both compare values,
/// never just hashes).
#[test]
fn hash_collisions_resolve_by_value_on_every_backend() {
    let mut pairs: Vec<(Value, Value)> = Vec::new();
    for i in 0..64i64 {
        if let Some(f) = colliding_float(i) {
            pairs.push((Value::Int(i), f));
        }
    }
    assert!(
        pairs.len() >= 32,
        "hash inversion should construct most collisions, got {}",
        pairs.len()
    );
    for (int_key, float_key) in pairs.iter().take(8) {
        assert_eq!(int_key.stable_key_hash(), float_key.stable_key_hash());
        for kind in kinds() {
            let mut store = kind.build(&[0]);
            // Two rows per key, plus an unrelated one.
            for v in [int_key, int_key, float_key, float_key, &Value::Int(-99)] {
                store.insert(Row::shared(vec![v.clone(), Value::Int(1)]));
            }
            assert_eq!(store.lookup_eq(0, int_key).len(), 2, "{kind:?}");
            assert_eq!(store.lookup_eq(0, float_key).len(), 2, "{kind:?}");
            // One envelope carrying both colliding keys (plus duplicates):
            // dedup must share only true duplicates, never the collision.
            assert_flat_eq_scalar(
                store.as_ref(),
                0,
                &[
                    int_key.clone(),
                    float_key.clone(),
                    int_key.clone(),
                    float_key.clone(),
                ],
                &format!("collision {int_key:?}/{float_key:?} on {kind:?}"),
            );
            let rows_int = store.lookup_eq(0, int_key);
            let rows_float = store.lookup_eq(0, float_key);
            for a in &rows_int {
                for b in &rows_float {
                    assert!(!Arc::ptr_eq(a, b), "collision leaked rows across keys");
                }
            }
        }
    }
}
