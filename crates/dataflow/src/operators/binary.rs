//! Two-input operators: join, co-group, cross, union, broadcast-map.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::exec::{par_map, ExecContext};
use crate::ft::SolutionSets;
use crate::hash::FxHashMap;
use crate::operators::keyed::KeyData;
use crate::partition::{broadcast, hash_partition, shuffle_by_key, shuffle_refs};
use crate::plan::{DynOp, RunMemo};

/// Equi-join: apply `f` to every pair of left/right records with equal keys
/// (the paper's `Join` higher-order function).
pub struct JoinOp<L, R, K, KL, KR, O, F> {
    key_left: Arc<KL>,
    key_right: Arc<KR>,
    f: Arc<F>,
    _types: PhantomData<fn(L, R, K) -> O>,
}

impl<L, R, K, KL, KR, O, F> JoinOp<L, R, K, KL, KR, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, key_right: KR, f: F) -> Self {
        JoinOp {
            key_left: Arc::new(key_left),
            key_right: Arc::new(key_right),
            f: Arc::new(f),
            _types: PhantomData,
        }
    }
}

impl<L, R, K, KL, KR, O, F> DynOp for JoinOp<L, R, K, KL, KR, O, F>
where
    L: Data,
    R: Data,
    K: KeyData,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    KR: Fn(&R) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&L, &R) -> O + Send + Sync + 'static,
{
    /// Build-and-drop: hash the build (right) side, probe it with the left
    /// side, drop the table.
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Join(left)")?;
        let right = inputs[1].downcast::<R>("Join(right)")?;
        let shuffled_left = ctx.time_shuffle(|| shuffle_refs(left, &*self.key_left));
        let shuffled_right = ctx.time_shuffle(|| shuffle_refs(right, &*self.key_right));
        ctx.add_shuffled(shuffled_left.moved + shuffled_right.moved);

        let key_left = &*self.key_left;
        let key_right = &*self.key_right;
        let f = &*self.f;
        let work = shuffled_left.parts.total_len() + shuffled_right.parts.total_len();
        let zipped: Vec<(Vec<&L>, Vec<&R>)> = shuffled_left
            .parts
            .into_parts()
            .into_iter()
            .zip(shuffled_right.parts.into_parts())
            .collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rights)| {
            let mut table: FxHashMap<K, Vec<&R>> = FxHashMap::default();
            for r in rights {
                table.entry(key_right(r)).or_default().push(r);
            }
            let mut out = Vec::new();
            for l in lefts {
                if let Some(matches) = table.get(&key_left(l)) {
                    for r in matches {
                        out.push(f(l, r));
                    }
                }
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    /// A loop-invariant build side is indexed once per run; every superstep
    /// only routes and probes the left side.
    fn execute_in_loop(
        &mut self,
        inputs: &[Erased],
        invariant: &[bool],
        memo: &mut RunMemo,
        ctx: &ExecContext,
    ) -> Result<Erased> {
        if !invariant[1] {
            return self.execute(inputs, ctx);
        }
        let right = inputs[1].downcast::<R>("Join(right)")?;
        if memo.is_none() {
            *memo = Some(Box::new(BuildIndex::build(right, &*self.key_right, ctx)?));
        }
        let index = memo
            .as_ref()
            .and_then(|memo| memo.downcast_ref::<BuildIndex<K>>())
            .ok_or_else(|| EngineError::Plan("join index of another key type".into()))?;
        let left = inputs[0].downcast::<L>("Join(left)")?;
        let shuffled_left = ctx.time_shuffle(|| shuffle_refs(left, &*self.key_left));
        // Bill the build side as if it were shuffled again, so the traffic
        // count does not depend on whether the index is cached.
        ctx.add_shuffled(shuffled_left.moved + index.moved);

        let key_left = &*self.key_left;
        let f = &*self.f;
        let work = shuffled_left.parts.total_len();
        let out = par_map(shuffled_left.parts.into_parts(), ctx, work, |pid, lefts| {
            let part = &index.parts[pid];
            let mut out = Vec::new();
            for l in lefts {
                for &(source, row) in part.matches(&key_left(l)) {
                    out.push(f(l, &right.partition(source as usize)[row as usize]));
                }
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Join"
    }
}

/// A key-to-row-position index over a join's build side, built once per
/// iteration run when that side is loop-invariant.
///
/// Partition `p` covers the records whose key hashes to `p`, wherever they
/// sit in the input. The index points into the input as
/// `(source partition, row)` pairs and clones no record (positions are
/// 32-bit: a partition holds fewer than 2^32 records). A key's positions
/// are contiguous and in input order, so probing visits matches in the
/// order a rebuilt hash table would.
struct BuildIndex<K> {
    parts: Vec<PartIndex<K>>,
    /// Build-side records outside their key's partition.
    moved: u64,
}

/// One partition of a [`BuildIndex`]: key `k`'s positions are
/// `rows[starts[g]..starts[g + 1]]` for `g = groups[k]`.
struct PartIndex<K> {
    groups: FxHashMap<K, u32>,
    starts: Vec<u32>,
    rows: Vec<(u32, u32)>,
}

impl<K: KeyData> BuildIndex<K> {
    fn build<R: Data>(
        input: &Partitions<R>,
        key_of: &(impl Fn(&R) -> K + Sync),
        ctx: &ExecContext,
    ) -> Result<Self> {
        let p = input.num_partitions();
        let mut routed: Vec<Vec<(u32, u32)>> = (0..p).map(|_| Vec::new()).collect();
        let mut moved = 0u64;
        for (source, records) in input.iter() {
            for (row, record) in records.iter().enumerate() {
                let target = hash_partition(&key_of(record), p);
                if target != source {
                    moved += 1;
                }
                routed[target].push((source as u32, row as u32));
            }
        }
        let record_at = |(source, row): (u32, u32)| &input.partition(source as usize)[row as usize];
        let parts = par_map(routed, ctx, input.total_len(), |_, positions| {
            PartIndex::group(positions, |pos| key_of(record_at(pos)))
        })?;
        Ok(BuildIndex { parts, moved })
    }
}

impl<K: KeyData> PartIndex<K> {
    /// Group `positions` by key with a counting sort: one pass to number
    /// the keys and count their rows, one to place each row.
    fn group(positions: Vec<(u32, u32)>, key_at: impl Fn((u32, u32)) -> K) -> Self {
        let mut groups: FxHashMap<K, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let group_of: Vec<u32> = positions
            .iter()
            .map(|&pos| {
                let g = *groups.entry(key_at(pos)).or_insert_with(|| {
                    counts.push(0);
                    (counts.len() - 1) as u32
                });
                counts[g as usize] += 1;
                g
            })
            .collect();
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        starts.push(0);
        for count in counts {
            total += count;
            starts.push(total);
        }
        let mut cursor = starts.clone();
        let mut rows = vec![(0, 0); positions.len()];
        for (pos, g) in positions.into_iter().zip(group_of) {
            rows[cursor[g as usize] as usize] = pos;
            cursor[g as usize] += 1;
        }
        PartIndex { groups, starts, rows }
    }

    fn matches(&self, key: &K) -> &[(u32, u32)] {
        match self.groups.get(key) {
            Some(&g) => {
                &self.rows[self.starts[g as usize] as usize..self.starts[g as usize + 1] as usize]
            }
            None => &[],
        }
    }
}

/// Join against a delta iteration's solution set, probed in place: the left
/// side is routed to its keys' partitions and every record looks its key up
/// in that partition's solution map. `f` sees each left record with the
/// matching solution value; left records without an entry produce nothing.
pub struct SolutionJoinOp<T, K, V, KL, O, F> {
    key_left: Arc<KL>,
    f: Arc<F>,
    _types: PhantomData<fn(T, K, V) -> O>,
}

impl<T, K, V, KL, O, F> SolutionJoinOp<T, K, V, KL, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, f: F) -> Self {
        SolutionJoinOp { key_left: Arc::new(key_left), f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, K, V, KL, O, F> DynOp for SolutionJoinOp<T, K, V, KL, O, F>
where
    T: Data,
    K: KeyData,
    V: Data,
    KL: Fn(&T) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&T, &V) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<T>("SolutionJoin(left)")?;
        let solution =
            inputs[1].downcast_shared::<SolutionSets<K, V>>("SolutionJoin(solution set)")?;
        let shuffled = ctx.time_shuffle(|| shuffle_refs(left, &*self.key_left));
        ctx.add_shuffled(shuffled.moved);
        let key_left = &*self.key_left;
        let f = &*self.f;
        let work = shuffled.parts.total_len();
        let out = par_map(shuffled.parts.into_parts(), ctx, work, |pid, lefts| {
            let set = &solution[pid];
            lefts.into_iter().filter_map(|l| set.get(&key_left(l)).map(|v| f(l, v))).collect()
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "SolutionJoin"
    }
}

/// Co-group: group both inputs by key and hand `f` the two (possibly empty)
/// groups for every key present on either side. Subsumes outer joins.
pub struct CoGroupOp<L, R, K, KL, KR, O, F> {
    key_left: Arc<KL>,
    key_right: Arc<KR>,
    f: Arc<F>,
    _types: PhantomData<fn(L, R, K) -> O>,
}

impl<L, R, K, KL, KR, O, F> CoGroupOp<L, R, K, KL, KR, O, F> {
    /// Operator over the given user function(s).
    pub fn new(key_left: KL, key_right: KR, f: F) -> Self {
        CoGroupOp {
            key_left: Arc::new(key_left),
            key_right: Arc::new(key_right),
            f: Arc::new(f),
            _types: PhantomData,
        }
    }
}

impl<L, R, K, KL, KR, O, F> DynOp for CoGroupOp<L, R, K, KL, KR, O, F>
where
    L: Data,
    R: Data,
    K: KeyData + Ord,
    KL: Fn(&L) -> K + Send + Sync + 'static,
    KR: Fn(&R) -> K + Send + Sync + 'static,
    O: Data,
    F: Fn(&K, &[L], &[R]) -> Vec<O> + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].clone().take::<L>("CoGroup(left)")?;
        let right = inputs[1].clone().take::<R>("CoGroup(right)")?;
        let shuffled_left = ctx.time_shuffle(|| shuffle_by_key(left, &*self.key_left));
        let shuffled_right = ctx.time_shuffle(|| shuffle_by_key(right, &*self.key_right));
        ctx.add_shuffled(shuffled_left.moved + shuffled_right.moved);

        let key_left = &*self.key_left;
        let key_right = &*self.key_right;
        let f = &*self.f;
        let work = shuffled_left.parts.total_len() + shuffled_right.parts.total_len();
        let zipped: Vec<(Vec<L>, Vec<R>)> = shuffled_left
            .parts
            .into_parts()
            .into_iter()
            .zip(shuffled_right.parts.into_parts())
            .collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rights)| {
            let mut groups: FxHashMap<K, (Vec<L>, Vec<R>)> = FxHashMap::default();
            for l in lefts {
                groups.entry(key_left(&l)).or_default().0.push(l);
            }
            for r in rights {
                groups.entry(key_right(&r)).or_default().1.push(r);
            }
            // Sort keys for deterministic output order.
            type Groups<K, L, R> = Vec<(K, (Vec<L>, Vec<R>))>;
            let mut entries: Groups<K, L, R> = groups.into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out = Vec::new();
            for (key, (ls, rs)) in &entries {
                out.extend(f(key, ls, rs));
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "CoGroup"
    }
}

/// Cartesian product: the right side is broadcast to every partition of the
/// left (the paper's `Cross` higher-order function).
pub struct CrossOp<L, R, O, F> {
    f: Arc<F>,
    _types: PhantomData<fn(L, R) -> O>,
}

impl<L, R, O, F> CrossOp<L, R, O, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        CrossOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<L, R, O, F> DynOp for CrossOp<L, R, O, F>
where
    L: Data,
    R: Data,
    O: Data,
    F: Fn(&L, &R) -> O + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].downcast::<L>("Cross(left)")?;
        let right = inputs[1].downcast::<R>("Cross(right)")?;
        let replicated = ctx.time_shuffle(|| broadcast(right, left.num_partitions()));
        ctx.add_shuffled(replicated.moved);
        let f = &*self.f;
        let rights: Vec<Vec<R>> = replicated.parts.into_parts();
        let work = left.total_len() + replicated.moved as usize;
        let zipped: Vec<(&Vec<L>, Vec<R>)> = left.as_parts().iter().zip(rights).collect();
        let out = par_map(zipped, ctx, work, |_, (lefts, rs)| {
            let mut out = Vec::with_capacity(lefts.len() * rs.len());
            for l in lefts {
                for r in &rs {
                    out.push(f(l, r));
                }
            }
            out
        })?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "Cross"
    }
}

/// Broadcast-variable map: every record of the main input sees the *entire*
/// side input, like a Flink broadcast set. Used e.g. to fold the global
/// dangling-mass aggregate into each PageRank update.
pub struct BroadcastMapOp<T, B, U, F> {
    f: Arc<F>,
    _types: PhantomData<fn(T, B) -> U>,
}

impl<T, B, U, F> BroadcastMapOp<T, B, U, F> {
    /// Operator over the given user function(s).
    pub fn new(f: F) -> Self {
        BroadcastMapOp { f: Arc::new(f), _types: PhantomData }
    }
}

impl<T, B, U, F> DynOp for BroadcastMapOp<T, B, U, F>
where
    T: Data,
    B: Data,
    U: Data,
    F: Fn(&T, &[B]) -> U + Send + Sync + 'static,
{
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let main = inputs[0].downcast::<T>("BroadcastMap(main)")?;
        let side = inputs[1].downcast::<B>("BroadcastMap(side)")?;
        let side_records: Vec<B> = side.iter_records().cloned().collect();
        // The side input travels to every partition but the one it lives in.
        ctx.add_shuffled(side_records.len() as u64 * (main.num_partitions() as u64 - 1));
        let f = &*self.f;
        let side_ref = &side_records;
        let out = par_map(
            main.as_parts().iter().collect::<Vec<_>>(),
            ctx,
            main.total_len(),
            |_, records| records.iter().map(|t| f(t, side_ref)).collect::<Vec<U>>(),
        )?;
        Ok(Erased::new(Partitions::from_parts(out)))
    }

    fn kind(&self) -> &'static str {
        "BroadcastMap"
    }
}

/// Concatenate two datasets partition-wise (no shuffle).
pub struct UnionOp<T> {
    _types: PhantomData<fn(T)>,
}

impl<T> UnionOp<T> {
    /// Operator over the given user function(s).
    pub fn new() -> Self {
        UnionOp { _types: PhantomData }
    }
}

impl<T> Default for UnionOp<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Data> DynOp for UnionOp<T> {
    fn execute(&mut self, inputs: &[Erased], _ctx: &ExecContext) -> Result<Erased> {
        let left = inputs[0].clone().take::<T>("Union(left)")?;
        let mut right = inputs[1].clone().take::<T>("Union(right)")?;
        let mut parts = left.into_parts();
        for (pid, part) in parts.iter_mut().enumerate() {
            part.append(right.partition_mut(pid));
        }
        Ok(Erased::new(Partitions::from_parts(parts)))
    }

    fn kind(&self) -> &'static str {
        "Union"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    fn ctx() -> ExecContext {
        ExecContext::new(EnvConfig::new(4).with_thread_threshold(0))
    }

    fn erased<T: Data>(v: Vec<T>, p: usize) -> Erased {
        Erased::new(Partitions::round_robin(v, p))
    }

    #[test]
    fn join_matches_equal_keys() {
        let left = erased(vec![(1u64, 'a'), (2, 'b'), (3, 'c')], 4);
        let right = erased(vec![(1u64, 10u64), (1, 11), (3, 30)], 4);
        let mut op = JoinOp::new(
            |l: &(u64, char)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, char), r: &(u64, u64)| (l.0, l.1, r.1),
        );
        let mut v = op
            .execute(&[left, right], &ctx())
            .unwrap()
            .take::<(u64, char, u64)>("t")
            .unwrap()
            .into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 'a', 10), (1, 'a', 11), (3, 'c', 30)]);
    }

    #[test]
    fn join_empty_right_is_empty() {
        let left = erased(vec![(1u64, 1u64)], 2);
        let right = erased(Vec::<(u64, u64)>::new(), 2);
        let mut op = JoinOp::new(
            |l: &(u64, u64)| l.0,
            |r: &(u64, u64)| r.0,
            |l: &(u64, u64), _r: &(u64, u64)| *l,
        );
        let out = op.execute(&[left, right], &ctx()).unwrap();
        assert_eq!(out.downcast::<(u64, u64)>("t").unwrap().total_len(), 0);
    }

    #[test]
    fn cogroup_sees_unmatched_keys_from_both_sides() {
        let left = erased(vec![(1u64, 'l')], 2);
        let right = erased(vec![(2u64, 'r')], 2);
        let mut op = CoGroupOp::new(
            |l: &(u64, char)| l.0,
            |r: &(u64, char)| r.0,
            |k: &u64, ls: &[(u64, char)], rs: &[(u64, char)]| {
                vec![(*k, ls.len() as u64, rs.len() as u64)]
            },
        );
        let mut v = op
            .execute(&[left, right], &ctx())
            .unwrap()
            .take::<(u64, u64, u64)>("t")
            .unwrap()
            .into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![(1, 1, 0), (2, 0, 1)]);
    }

    #[test]
    fn cross_pairs_everything() {
        let left = erased(vec![1u64, 2], 2);
        let right = erased(vec![10u64, 20], 2);
        let mut op = CrossOp::new(|l: &u64, r: &u64| l * r);
        let mut v =
            op.execute(&[left, right], &ctx()).unwrap().take::<u64>("t").unwrap().into_vec();
        v.sort_unstable();
        assert_eq!(v, vec![10, 20, 20, 40]);
    }

    #[test]
    fn broadcast_map_hands_full_side_input() {
        let c = ctx();
        let main = erased(vec![1.0f64, 2.0, 3.0], 4);
        let side = erased(vec![10.0f64], 4);
        let mut op = BroadcastMapOp::new(|t: &f64, side: &[f64]| t + side[0]);
        let mut v = op.execute(&[main, side], &c).unwrap().take::<f64>("t").unwrap().into_vec();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![11.0, 12.0, 13.0]);
        let (_, shuffled) = c.drain();
        assert_eq!(shuffled, 3); // 1 side record to 3 remote partitions
    }

    #[test]
    fn union_concatenates_partitionwise() {
        let left = erased(vec![1u64, 2], 2);
        let right = erased(vec![3u64], 2);
        let mut op = UnionOp::<u64>::new();
        let out = op.execute(&[left, right], &ctx()).unwrap();
        let parts = out.take::<u64>("t").unwrap();
        assert_eq!(parts.total_len(), 3);
        assert_eq!(parts.num_partitions(), 2);
    }
}
