//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `fig*` binary in `src/bin/` is a thin CLI wrapper over a pure
//! function in [`experiments`], so the same code paths are smoke-tested
//! at tiny scale in CI and run at paper scale with `--full`. Output is an
//! aligned text table by default, or JSON rows with `--json`, for
//! EXPERIMENTS.md bookkeeping.
//!
//! Experiment index (see DESIGN.md §4 for the full mapping):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig05_delta_tau` | Fig. 5 + Example 6 |
//! | `fig08_tuning` | Fig. 8(a)/(b) |
//! | `fig09_abs_sigma` | Fig. 9 |
//! | `fig10_log_sigma` | Fig. 10 |
//! | `fig11_real` | Fig. 11 |
//! | `fig12_array_size` | Fig. 12 |
//! | `fig13_21_system` | Figs. 13–21 |
//! | `fig22_forecast` | Fig. 22 |
//! | `ex2_moves` | Example 2 / Fig. 2 |
//! | `ablation` | Θ / L0 / estimator / stability / model ablations |
//! | `concurrency` | writer/query thread contention (§VI-D1) |
//! | `trace_analyze` | disorder profile + sort comparison for any CSV |

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod obs_tools;
pub mod query_bench_cli;
pub mod server_bench_cli;
pub mod table;
pub mod timing;
