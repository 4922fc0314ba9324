//! # cchunter-sim
//!
//! A deterministic, discrete-event multicore processor simulator that serves
//! as the substrate for the CC-Hunter reproduction (Chen & Venkataramani,
//! MICRO 2014).
//!
//! The original paper evaluates CC-Hunter inside the MARSSx86 full-system
//! simulator. CC-Hunter itself only consumes *microarchitectural event
//! trains* — memory-bus lock events, integer-divider wait cycles, and cache
//! conflict misses labeled with their replacer/victim hardware contexts —
//! plus the latencies observed by the covert-channel processes themselves.
//! This crate therefore models exactly the shared-hardware behaviour those
//! event trains depend on:
//!
//! * a quad-core, 2-way SMT processor clocked at 2.5 GHz (configurable),
//! * per-core L1 and L2 set-associative caches shared between hyperthreads,
//! * a shared memory bus with x86 `LOCK` semantics for atomic unaligned
//!   accesses spanning two cache lines,
//! * a per-core bank of non-pipelined integer dividers with SMT arbitration,
//! * an OS scheduler with configurable time quanta,
//! * a probe interface that reports indicator events to observers (the
//!   CC-auditor model lives in `cchunter-detector`).
//!
//! Programs are expressed as streams of abstract operations ([`Op`]) produced
//! by implementations of the [`Program`] trait; the simulator is fully
//! deterministic for a given configuration and seed.
//!
//! ## Example
//!
//! ```
//! use cchunter_sim::{Machine, MachineConfig, Op, Program, ProgramView};
//!
//! /// A program that performs one million cycles of pure compute.
//! struct Busy {
//!     remaining: u64,
//! }
//!
//! impl Program for Busy {
//!     fn next_op(&mut self, _view: &ProgramView) -> Op {
//!         if self.remaining == 0 {
//!             return Op::Halt;
//!         }
//!         let chunk = self.remaining.min(10_000);
//!         self.remaining -= chunk;
//!         Op::Compute { cycles: chunk }
//!     }
//! }
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let ctx = machine.config().context_id(0, 0);
//! machine.spawn(Box::new(Busy { remaining: 1_000_000 }), ctx);
//! machine.run_for(2_000_000);
//! assert!(machine.stats().committed_ops > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod divider;
pub mod engine;
pub mod machine;
pub mod memory;
pub mod ops;
pub mod probe;
pub mod program;
pub mod scheduler;
pub mod stats;
pub mod time;

pub use bus::{Bus, BusGrant};
pub use cache::{Cache, CacheAccessOutcome, CacheLevel};
pub use config::{
    BusConfig, CacheConfig, ConfigError, DividerConfig, MachineConfig, MachineConfigBuilder,
    MitigationCostConfig, SchedulerConfig,
};
pub use divider::{DivIssue, DividerBank};
pub use machine::Machine;
pub use memory::{MemAccess, MemorySystem};
pub use ops::{MemWidth, Op};
pub use probe::{
    BoundedTrace, ContextId, CoreId, DegradedProbe, FilteredTrace, Interest, ProbeEvent, ProbeSink,
    ThreadId, VecTrace,
};
pub use program::{FnProgram, OpScript, Program, ProgramView};
pub use scheduler::{TemporalGate, ThreadState};
pub use stats::MachineStats;
pub use time::{cycles_per_second, Cycle, DEFAULT_CLOCK_HZ};
