//! Hash store with secondary indexes per join column.

use crate::flat::CandidateBuf;
use crate::store::{index_key, lookup_eq_flat_via_scalar, DictStore};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use stems_types::{HashedKey, KeyHash, Row, Value};

/// A dictionary with one secondary hash index per join column.
///
/// This is the paper's default SteM backend (§2.1.4): "a SteM on a table S
/// has one main-memory index ... on each column of S that is involved in a
/// join predicate. These are all secondary indexes having pointers to the
/// same tuples in memory." Routing through hash-backed SteMs realizes the
/// n-ary symmetric hash join of §2.3.
///
/// Rows also live in an insertion-order list (the scan path, FIFO eviction
/// order, and the upgrade target for [`crate::AdaptiveStore`]).
///
/// Each secondary index is a flat chain of row positions keyed by
/// [`Value::stable_key_hash`] of the equality normal form: probes
/// arriving through [`DictStore::lookup_eq_flat`] carry that hash
/// precomputed ([`HashedKey`]) and descend the index without re-hashing —
/// the hash-once contract of the flat probe pipeline.
#[derive(Debug)]
pub struct HashStore {
    /// Rows in insertion order; removal leaves tombstones (`None`) so that
    /// chain positions stay valid.
    slots: Vec<Option<Arc<Row>>>,
    /// One chain index per indexed column, sorted by column.
    indexes: Box<[ChainIndex]>,
    /// Every slot before this one is a tombstone.
    first_live: usize,
    live: usize,
    bytes: usize,
}

/// End-of-chain marker in [`ChainIndex`].
const NIL: u32 = u32::MAX;

/// A no-op hasher: the head tables' u64 keys *are* the key hashes.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only accepts u64 keys");
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// One secondary index: a head table maps a key hash to the first and
/// last slot of its chain, and `next`, aligned with the row slots, links
/// each slot to the next one with the same key hash in insertion order.
/// It holds no `Value` copies and allocates nothing per row or per
/// distinct key. Chains hold live slots only, and a lookup keeps the
/// slots whose stored key equals the probe key, so hash collisions
/// resolve by value.
#[derive(Debug, Default)]
struct ChainIndex {
    col: usize,
    /// Key hash → `(head, tail)` slot positions of that hash's chain.
    heads: HashMap<u64, (u32, u32), BuildHasherDefault<IdentityHasher>>,
    /// Per slot, the next slot on its chain; `NIL` at a tail and for rows
    /// this index does not hold (NULL/EOT or missing column).
    next: Vec<u32>,
}

impl ChainIndex {
    /// The hash `row` is chained under here, `None` if it is not indexed.
    fn hash_of(&self, row: &Row) -> Option<KeyHash> {
        row.get(self.col)
            .and_then(Value::stable_key_hash)
            .map(KeyHash)
    }

    /// Append slot `pos` (the next slot) at the tail of its chain.
    fn push(&mut self, hash: Option<KeyHash>, pos: u32) {
        debug_assert_eq!(self.next.len(), pos as usize);
        self.next.push(NIL);
        let Some(h) = hash else { return };
        match self.heads.entry(h.get()) {
            Entry::Occupied(mut e) => {
                let (_, tail) = e.get_mut();
                self.next[*tail as usize] = pos;
                *tail = pos;
            }
            Entry::Vacant(e) => {
                e.insert((pos, pos));
            }
        }
    }

    /// The slots chained under `hash`, in insertion order.
    fn chain(&self, hash: KeyHash) -> impl Iterator<Item = usize> + '_ {
        // Stopping at the tail, not at its NIL link, spares a read of
        // `next` per lookup.
        let (head, tail) = self
            .heads
            .get(&hash.get())
            .map_or((None, NIL), |&(h, t)| (Some(h), t));
        let next = move |&p: &u32| (p != tail).then(|| self.next[p as usize]);
        std::iter::successors(head, next).map(|p| p as usize)
    }

    /// Unlink slot `pos` from the chain of `hash`.
    fn unlink(&mut self, hash: KeyHash, pos: u32) {
        let Entry::Occupied(mut e) = self.heads.entry(hash.get()) else {
            unreachable!("a live indexed slot is on its chain");
        };
        let after = std::mem::replace(&mut self.next[pos as usize], NIL);
        let (head, tail) = e.get_mut();
        if *head == pos {
            *head = after;
        } else {
            // Indexing `next` at NIL panics if `pos` is not on the chain.
            let mut prev = *head;
            while self.next[prev as usize] != pos {
                prev = self.next[prev as usize];
            }
            self.next[prev as usize] = after;
            if *tail == pos {
                *tail = prev;
            }
        }
        if *head == NIL {
            e.remove();
        }
    }
}

impl HashStore {
    /// Create a store with secondary indexes on `indexed_cols`.
    pub fn new(indexed_cols: &[usize]) -> HashStore {
        let mut cols: Vec<usize> = indexed_cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let index = |col| ChainIndex {
            col,
            ..Default::default()
        };
        HashStore {
            slots: Vec::new(),
            indexes: cols.into_iter().map(index).collect(),
            first_live: 0,
            live: 0,
            bytes: 0,
        }
    }

    /// Which columns carry secondary indexes.
    pub fn indexed_cols(&self) -> Vec<usize> {
        self.indexes.iter().map(|idx| idx.col).collect()
    }

    fn index_on(&self, col: usize) -> Option<&ChainIndex> {
        self.indexes.iter().find(|idx| idx.col == col)
    }

    /// Live rows in insertion order.
    fn live_rows(&self) -> impl Iterator<Item = &Arc<Row>> {
        self.slots[self.first_live..].iter().flatten()
    }

    /// Live rows chained under `hash` in `idx` whose key is `key` (an
    /// equality normal form), in insertion order.
    fn matches<'a>(
        &'a self,
        idx: &'a ChainIndex,
        hash: KeyHash,
        key: &'a Value,
    ) -> impl Iterator<Item = &'a Arc<Row>> + 'a {
        idx.chain(hash)
            .filter_map(|p| self.slots[p].as_ref())
            .filter(move |r| r.get(idx.col).is_some_and(|v| v.has_equality_key(key)))
    }

    /// The position of the oldest live row equal to `row`: through the
    /// chain of its first indexed key, or by scan when it has none.
    fn position_of(&self, row: &Row) -> Option<usize> {
        let is_row = |p: &usize| self.slots[*p].as_deref() == Some(row);
        match self.indexes.first().map(|idx| (idx, idx.hash_of(row))) {
            Some((idx, Some(h))) => idx.chain(h).find(is_row),
            _ => (self.first_live..self.slots.len()).find(is_row),
        }
    }
}

impl DictStore for HashStore {
    fn insert(&mut self, row: Arc<Row>) {
        let pos = u32::try_from(self.slots.len())
            .ok()
            .filter(|p| *p != NIL)
            .expect("a HashStore holds fewer than u32::MAX rows");
        self.bytes += row.approx_bytes();
        for idx in self.indexes.iter_mut() {
            let h = idx.hash_of(&row);
            idx.push(h, pos);
        }
        self.slots.push(Some(row));
        self.live += 1;
    }

    fn insert_batch(&mut self, rows: Vec<Arc<Row>>) {
        // One reservation per array for the whole batch; the per-row path
        // is shared with `insert` so the two can never diverge.
        self.slots.reserve(rows.len());
        for idx in self.indexes.iter_mut() {
            idx.next.reserve(rows.len());
        }
        for row in rows {
            self.insert(row);
        }
    }

    fn lookup_eq_flat(&self, col: usize, keys: &[HashedKey], out: &mut CandidateBuf) {
        let Some(idx) = self.index_on(col) else {
            // No index on this column: scan-filter per distinct key.
            lookup_eq_flat_via_scalar(self, col, keys, out);
            return;
        };
        out.reset();
        for (i, key) in keys.iter().enumerate() {
            if let Some(j) = out.probe_dup(i, keys) {
                out.share_key(j);
                continue;
            }
            let start = out.begin_key();
            // The envelope's precomputed hash descends the index directly
            // — no re-hashing of Str/Float keys per probe.
            if let (Some(k), Some(h)) = (key.key(), key.hash()) {
                for row in self.matches(idx, h, k) {
                    out.push_row(row.clone());
                }
            }
            out.commit_key(start);
        }
    }

    fn lookup_eq(&self, col: usize, key: &Value) -> Vec<Arc<Row>> {
        let Some(k) = index_key(key) else {
            return Vec::new();
        };
        match self.index_on(col) {
            Some(idx) => {
                let h = KeyHash(k.stable_key_hash().expect("normal forms are hashable"));
                self.matches(idx, h, &k).cloned().collect()
            }
            // No index on this column: fall back to scan-filter. Correct,
            // just slower — mirrors a SteM probed on an unindexed predicate.
            None => self
                .live_rows()
                .filter(|r| r.get(col).is_some_and(|v| v.has_equality_key(&k)))
                .cloned()
                .collect(),
        }
    }

    fn scan(&self) -> Vec<Arc<Row>> {
        self.live_rows().cloned().collect()
    }

    fn remove(&mut self, row: &Row) -> bool {
        let Some(pos) = self.position_of(row) else {
            return false;
        };
        let removed = self.slots[pos]
            .take()
            .expect("position_of finds live slots");
        self.bytes = self.bytes.saturating_sub(removed.approx_bytes());
        self.live -= 1;
        for idx in self.indexes.iter_mut() {
            if let Some(h) = idx.hash_of(&removed) {
                idx.unlink(h, pos as u32);
            }
        }
        while self.slots.get(self.first_live).is_some_and(Option::is_none) {
            self.first_live += 1;
        }
        true
    }

    fn oldest(&self) -> Option<Arc<Row>> {
        self.live_rows().next().cloned()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn approx_bytes(&self) -> usize {
        // Rows + a rough 16 bytes of index overhead per (index, row) pair.
        self.bytes + self.indexes.len() * self.live * 16 + std::mem::size_of::<HashStore>()
    }

    fn backend(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::{self, row};
    use crate::ListStore;

    #[test]
    fn conformance_suite() {
        conformance::run_suite(Box::new(HashStore::new(&[1])));
    }

    #[test]
    fn conformance_without_matching_index() {
        // Same behaviour expected when lookups hit the scan-filter path.
        conformance::run_suite(Box::new(HashStore::new(&[0])));
    }

    #[test]
    fn multiple_secondary_indexes_share_rows() {
        // Mirrors the paper's S table: indexes on both x and y.
        let mut s = HashStore::new(&[0, 1]);
        s.insert(row(&[7, 8]));
        let by_x = s.lookup_eq(0, &Value::Int(7));
        let by_y = s.lookup_eq(1, &Value::Int(8));
        assert_eq!(by_x.len(), 1);
        assert_eq!(by_y.len(), 1);
        // same allocation, not a copy
        assert!(Arc::ptr_eq(&by_x[0], &by_y[0]));
    }

    #[test]
    fn duplicate_index_cols_deduped() {
        let s = HashStore::new(&[1, 1, 0]);
        assert_eq!(s.indexed_cols(), vec![0, 1]);
    }

    #[test]
    fn removal_cleans_index_entries() {
        let mut s = HashStore::new(&[0]);
        s.insert(row(&[5]));
        s.insert(row(&[5]));
        assert!(s.remove(&row(&[5])));
        assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 1);
        assert!(s.remove(&row(&[5])));
        assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 0);
        assert_eq!(s.len(), 0);
        assert!(
            s.indexes[0].heads.is_empty(),
            "emptied chains leave the head table"
        );
    }

    #[test]
    fn out_of_range_index_column_is_harmless() {
        let mut s = HashStore::new(&[9]);
        s.insert(row(&[1, 2]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup_eq(9, &Value::Int(1)).len(), 0);
        assert_eq!(s.lookup_eq(0, &Value::Int(1)).len(), 1);
    }

    #[test]
    fn flat_lookup_skips_tombstones_and_dedups() {
        let mut s = HashStore::new(&[0]);
        s.insert(row(&[5, 1]));
        s.insert(row(&[5, 2]));
        s.insert(row(&[6, 3]));
        assert!(s.remove(&row(&[5, 1])));
        let keys: Vec<HashedKey> = [Value::Int(5), Value::Float(5.0), Value::Int(6)]
            .into_iter()
            .map(HashedKey::new)
            .collect();
        let mut buf = CandidateBuf::new();
        s.lookup_eq_flat(0, &keys, &mut buf);
        assert_eq!(buf.candidates(0).len(), 1);
        assert_eq!(buf.candidates(0), buf.candidates(1), "coercion dedup");
        assert_eq!(buf.candidates(2).len(), 1);
        // Two distinct keys resolved; the coerced duplicate shared.
        assert_eq!(buf.rows_stored(), 2);
    }

    /// Column 1 of every candidate `lookup_eq` returns for `key` on column
    /// 0, asserting the flat path returns the same rows in the same order.
    fn tags(s: &HashStore, key: i64) -> Vec<i64> {
        let scalar = s.lookup_eq(0, &Value::Int(key));
        let mut buf = CandidateBuf::new();
        s.lookup_eq_flat(0, &[HashedKey::new(Value::Int(key))], &mut buf);
        assert_eq!(buf.candidates(0), scalar.as_slice(), "flat ≡ scalar");
        scalar
            .iter()
            .map(|r| match r.get(1) {
                Some(Value::Int(t)) => *t,
                other => panic!("untagged row {other:?}"),
            })
            .collect()
    }

    #[test]
    fn chains_keep_insertion_order_across_removals() {
        let mut s = HashStore::new(&[0]);
        for t in 0..6 {
            s.insert(row(&[7, t]));
            s.insert(row(&[8, t])); // interleaved sibling chain
        }
        assert_eq!(tags(&s, 7), vec![0, 1, 2, 3, 4, 5]);
        assert!(s.remove(&row(&[7, 0]))); // head
        assert_eq!(tags(&s, 7), vec![1, 2, 3, 4, 5]);
        assert!(s.remove(&row(&[7, 3]))); // middle
        assert_eq!(tags(&s, 7), vec![1, 2, 4, 5]);
        assert!(s.remove(&row(&[7, 5]))); // tail
        assert_eq!(tags(&s, 7), vec![1, 2, 4]);
        // The tail moved back: new rows still append after it.
        s.insert(row(&[7, 9]));
        assert_eq!(tags(&s, 7), vec![1, 2, 4, 9]);
        assert_eq!(tags(&s, 8), vec![0, 1, 2, 3, 4, 5], "sibling untouched");
        for t in [1, 2, 4, 9] {
            assert!(s.remove(&row(&[7, t])));
        }
        assert!(tags(&s, 7).is_empty());
        s.insert(row(&[7, 10]));
        assert_eq!(tags(&s, 7), vec![10], "an emptied chain restarts");
    }

    #[test]
    fn unindexable_rows_keep_next_aligned() {
        let mut s = HashStore::new(&[0, 2]);
        s.insert(row(&[1, 0, 5]));
        s.insert(Arc::new(Row::new(vec![Value::Null, Value::Int(1)]))); // NULL, short
        s.insert(Arc::new(Row::new(vec![
            Value::Eot,
            Value::Int(2),
            Value::Null,
        ])));
        s.insert_batch(vec![row(&[1, 3]), row(&[1, 4, 5])]);
        for idx in s.indexes.iter() {
            assert_eq!(idx.next.len(), s.slots.len(), "column {}", idx.col);
        }
        assert_eq!(tags(&s, 1), vec![0, 3, 4]);
        let by_c2: Vec<_> = s
            .lookup_eq(2, &Value::Int(5))
            .iter()
            .map(|r| r.get(1).cloned())
            .collect();
        assert_eq!(by_c2, vec![Some(Value::Int(0)), Some(Value::Int(4))]);
        assert!(s.remove(&Row::new(vec![Value::Null, Value::Int(1)])));
        assert!(s.remove(&row(&[1, 0, 5])));
        assert_eq!(tags(&s, 1), vec![3, 4]);
        assert_eq!(s.lookup_eq(2, &Value::Int(5)).len(), 1);
        assert_eq!(s.len(), 3);
    }

    /// A store over one-column rows `vals` whose column-0 index chains
    /// row `i` under the caller-supplied `hashes[i]` instead of its own.
    fn forced(vals: &[Value], hashes: &[u64]) -> HashStore {
        let mut s = HashStore::new(&[]);
        let mut idx = ChainIndex::default();
        for (pos, (v, h)) in vals.iter().zip(hashes).enumerate() {
            s.insert(Arc::new(Row::new(vec![v.clone()])));
            idx.push(Some(KeyHash(*h)), pos as u32);
        }
        s.indexes = vec![idx].into_boxed_slice();
        s
    }

    fn hits(s: &HashStore, hash: u64, key: &Value) -> usize {
        s.matches(&s.indexes[0], KeyHash(hash), key).count()
    }

    #[test]
    fn forced_hash_collisions_resolve_by_value() {
        // Two distinct keys rammed into one chain under an identical
        // (caller-supplied) hash: the value check must keep them apart.
        // This is the adversarial case a real stable_key_hash collision
        // would hit.
        const FAKE: u64 = 0xDEAD_BEEF;
        let (a, b) = (Value::Int(1), Value::str("one"));
        let mut s = forced(&[a.clone(), b.clone(), a.clone()], &[FAKE; 3]);
        assert_eq!((hits(&s, FAKE, &a), hits(&s, FAKE, &b)), (2, 1));
        s.indexes[0].unlink(KeyHash(FAKE), 1);
        s.slots[1] = None;
        assert_eq!(hits(&s, FAKE, &a), 2, "chain siblings must survive");
        assert_eq!(hits(&s, FAKE, &b), 0);
    }

    #[test]
    fn same_key_under_two_hashes_is_two_entries() {
        // The index trusts the caller's hash: it never re-hashes, so a
        // wrong hash simply misses. Documents the contract rather than a
        // desirable behavior.
        let k = Value::Int(5);
        let s = forced(&[k.clone(), k.clone()], &[1, 2]);
        assert_eq!((hits(&s, 1, &k), hits(&s, 2, &k)), (1, 1));
        assert_eq!(hits(&s, 3, &k), 0);
    }

    #[test]
    fn fifo_window_matches_list_store() {
        // A 64-row FIFO window streamed over 20 000 rows, the way a
        // windowed SteM evicts: every read must agree with a ListStore
        // fed the same operations, and `oldest`/`remove` must not slow
        // down as tombstones pile up behind the window.
        const WINDOW: usize = 64;
        let mut hash = HashStore::new(&[0, 1]);
        let mut list = ListStore::new();
        for i in 0..20_000i64 {
            let r = Arc::new(Row::new(vec![
                Value::Int(i % 97),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 13)
                },
                Value::Int(i),
            ]));
            hash.insert(r.clone());
            list.insert(r);
            if hash.len() > WINDOW {
                let old = hash.oldest().expect("window is full");
                assert_eq!(Some(&old), list.oldest().as_ref());
                assert!(hash.remove(&old));
                assert!(list.remove(&old));
            }
            if i % 1_000 == 999 {
                assert_eq!(hash.len(), list.len());
                assert_eq!(hash.scan(), list.scan());
                assert_eq!(hash.oldest(), list.oldest());
                for k in 0..13 {
                    for col in [0, 1] {
                        let key = Value::Int(k);
                        assert_eq!(hash.lookup_eq(col, &key), list.lookup_eq(col, &key));
                    }
                }
            }
        }
        assert_eq!(hash.first_live, 20_000 - WINDOW);
    }

    #[test]
    fn approx_bytes_is_unchanged_by_the_index_layout() {
        // Figures of the per-key bucket index this layout replaced: the
        // server's byte-budget admission reads this accounting.
        let mut s = HashStore::new(&[1, 0]);
        let mut seen = vec![s.approx_bytes()];
        s.insert(row(&[1, 10]));
        seen.push(s.approx_bytes());
        let null_str = Arc::new(Row::new(vec![Value::Null, Value::str("abc")]));
        s.insert_batch(vec![row(&[2, 10]), row(&[3, 30]), null_str.clone()]);
        seen.push(s.approx_bytes());
        assert!(s.remove(&row(&[2, 10])));
        seen.push(s.approx_bytes());
        assert!(!s.remove(&row(&[2, 10])));
        seen.push(s.approx_bytes());
        assert!(s.remove(&null_str));
        seen.push(s.approx_bytes());
        assert_eq!(seen, vec![64, 160, 467, 371, 371, 256]);
    }
}
