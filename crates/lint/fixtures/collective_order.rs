//~ crate: mpi
//~ expect: collective-order
//! Seeded fixture: a `RankProgram` whose step fn is statically
//! rank-divergent. Even ranks allreduce (the `Allreduce::new` request
//! builder, a path-qualified entry point) while odd ranks barrier — the
//! protocol skeletons of the two arms differ, so some rank blocks forever
//! waiting for a partner that went elsewhere. The rank-bounded loop below
//! desynchronizes the same way: ranks issue different collective counts.

struct HalfAndHalf {
    steps: usize,
}

impl RankProgram for HalfAndHalf {
    fn next(&mut self, rank: usize) {
        if rank % 2 == 0 {
            Allreduce::new(rank);
        } else {
            barrier(rank);
        }
        for _ in 0..rank {
            barrier(rank);
        }
    }
}

struct Allreduce;

impl Allreduce {
    fn new(_rank: usize) {}
}

fn barrier(_rank: usize) {}
