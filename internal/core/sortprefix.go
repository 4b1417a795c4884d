package core

import "fuzzyjoin/internal/mapreduce"

// stageKeySortPrefix is the sort-prefix hook every pipeline job installs
// (Job.SortPrefix): the first eight key bytes read as a big-endian
// integer, which is order-consistent with the bytes.Compare sort order
// all stages use. It is also highly discriminative for every stage's key
// layout, so nearly all sort/merge comparisons resolve on the cached
// integer alone:
//
//   - Stage 1 BTO count keys are raw token bytes; the OPTO and BTO-sort
//     jobs key on [count u64], so the prefix IS the full sort key.
//   - Stage 2 keys (tabulated in stage2.go) lead with [group u32]
//     followed by a cell byte, a length or class, a role byte, a round,
//     or a block; length-routed keys lead with an 8-byte routing prefix.
//     Eight bytes cover the group plus the secondary-sort discriminant
//     (or most of it).
//   - Stage 3 BRJ phase 1 keys are [rid u64] (self) or [rel u8][rid u64]
//     (R-S); phase 2 groups by [ridA u64][ridB u64]. Eight bytes resolve
//     the self case exactly and all but same-rel-same-rid ties otherwise.
//
// The engine would install the same prefix by default (the jobs keep the
// default SortComparator); wiring it explicitly documents the layouts'
// compatibility and keeps the fast path if a stage ever adopts a custom
// comparator whose order still refines the first-8-bytes order.
var stageKeySortPrefix = mapreduce.DefaultSortPrefix
