//! Shared support for the integration suite.
//!
//! The interesting piece is [`fuzz`]: a seeded generator of paper-shaped
//! scheduling instances, the differential check that cross-examines the
//! MILP pipeline (branch & bound at one and three probe threads vs
//! brute-force enumeration vs the independent `certify` checker), and a greedy
//! shrinker that reduces any disagreement to a minimal reproducer for
//! `tests/corpus/`.

pub mod fuzz;
pub mod model_file;
