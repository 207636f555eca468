//! The per-bin contribution lists of one demand layer, and the invariant
//! both analysis passes keep on them: every bin lists its contributions
//! in ascending id order, the order the per-bin reduction sums in.

/// One demand layer — the nets' wire or the cells' pin overlay: every
/// id's raster and the per-bin lists the rasters scatter into.
#[derive(Debug)]
pub(crate) struct Layer {
    /// Per-id raster: `(bin, amount)` entries.
    pub(crate) entries: Vec<Vec<(u32, f64)>>,
    /// Per-bin contributions `(id, amount)`, sorted by id — the
    /// canonical summation order.
    pub(crate) bins: Vec<Vec<(u32, f64)>>,
    /// Splice scratch: per-id dirty flags and a merge buffer, retained
    /// so steady-state incremental passes allocate nothing.
    mark: Vec<bool>,
    merge: Vec<(u32, f64)>,
}

impl Layer {
    pub(crate) fn new(ids: usize, num_bins: usize) -> Self {
        Self {
            entries: vec![Vec::new(); ids],
            bins: vec![Vec::new(); num_bins],
            mark: vec![false; ids],
            merge: Vec::new(),
        }
    }

    /// Full-pass phase 2: rebuilds every bin list from the rasters, in
    /// id order.
    pub(crate) fn scatter(&mut self) {
        for list in &mut self.bins {
            list.clear();
        }
        for (id, entries) in self.entries.iter().enumerate() {
            for &(bin, amount) in entries {
                self.bins[bin as usize].push((id as u32, amount));
            }
        }
    }

    /// Appends the bins the current rasters of `ids` cover to `out`.
    pub(crate) fn push_bins(&self, ids: &[impl Copy + Into<usize>], out: &mut Vec<u32>) {
        for &id in ids {
            out.extend(self.entries[id.into()].iter().map(|&(bin, _)| bin));
        }
    }

    /// Incremental phase 2: rebuilds each `touched` bin list (sorted,
    /// deduplicated, covering every bin a `dirty` id's old or new raster
    /// covers) once. Entries of dirty ids are dropped and their new
    /// rasters merged in; survivors and incoming entries are both sorted
    /// by id and never share one, so the ascending-id order the full
    /// scatter produces — and so the summation order — is preserved
    /// while every list is scanned exactly once.
    pub(crate) fn splice(&mut self, dirty: &[impl Copy + Into<usize>], touched: &[u32]) {
        let mut incoming: Vec<(u32, u32, f64)> = Vec::new();
        for &id in dirty {
            let id = id.into();
            self.mark[id] = true;
            let raster = &self.entries[id];
            incoming.extend(raster.iter().map(|&(bin, amount)| (bin, id as u32, amount)));
        }
        incoming.sort_unstable_by_key(|&(bin, id, _)| (bin, id));
        let mark = &self.mark;
        let mut cur = 0usize;
        for &b in touched {
            let start = cur;
            while cur < incoming.len() && incoming[cur].0 == b {
                cur += 1;
            }
            let ins = &incoming[start..cur];
            let list = &mut self.bins[b as usize];
            if ins.is_empty() {
                list.retain(|&(id, _)| !mark[id as usize]);
                continue;
            }
            let merged = &mut self.merge;
            merged.clear();
            let mut next = 0usize;
            for &(id, amount) in list.iter() {
                if mark[id as usize] {
                    continue;
                }
                while next < ins.len() && ins[next].1 < id {
                    merged.push((ins[next].1, ins[next].2));
                    next += 1;
                }
                merged.push((id, amount));
            }
            merged.extend(ins[next..].iter().map(|&(_, id, amount)| (id, amount)));
            list.clear();
            list.extend_from_slice(merged);
        }
        debug_assert_eq!(cur, incoming.len(), "incoming bins outside the touched set");
        for &id in dirty {
            self.mark[id.into()] = false;
        }
    }
}
