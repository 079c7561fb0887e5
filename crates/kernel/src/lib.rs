//! `simkern` — simulation substrate for the AHB+ transaction-level and
//! pin-accurate bus models.
//!
//! The original paper builds its models on top of a commercial *2-step
//! cycle-based* simulation tool and uses *method-based* (function call)
//! modeling instead of thread-based processes. The backends here do the
//! same: each one steps its own components by direct calls inside its run
//! loop, so this crate holds only the small pieces they share:
//!
//! * [`component`] — the [`Clocked`] evaluate/commit contract of the
//!   pin-accurate model's blocks, including the idle-skip hooks below.
//! * [`signal`] — two-phase [`Register`]s (loads become visible at commit).
//! * [`time`] — strongly-typed cycle counts.
//! * [`rng`] — deterministic pseudo random number generation so that the
//!   RTL and TLM runs replay bit-identical stimulus.
//! * [`stats`] — monotone event counters.
//! * [`assertion`] — simulation-time property checking (paper §3.5).
//!
//! # Idle-skip contract
//!
//! A cycle-based run loop normally calls `eval` and `commit` on every
//! component every cycle. Components that can cheaply prove they are
//! *quiescent* opt into fast-forwarding by overriding two trait hooks:
//!
//! * [`component::Clocked::is_quiescent`] — return `true` at cycle `T` only
//!   if stepping the component over `[T, wake_at)` would change no
//!   observable state. The default (`false`) always disables skipping, so
//!   correctness never depends on a component opting in.
//! * [`component::Clocked::wake_at`] — the earliest future cycle at which
//!   the (currently quiescent) component becomes active *of its own
//!   accord*; `None` means "only other components' activity can wake me".
//!
//! The pin-accurate platform in `ahb-rtl` fast-forwards time in one jump
//! while **all** of its blocks report quiescence, bounded by the minimum
//! `wake_at` and the end of the run.
//!
//! # Example
//!
//! ```
//! use simkern::rng::SimRng;
//! use simkern::signal::Register;
//!
//! // Identical seeds replay identical stimulus.
//! let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! let mut hready = Register::new(false);
//! hready.load(true);
//! assert!(!hready.get(), "not visible before the clock edge");
//! hready.commit();
//! assert!(hready.get());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertion;
pub mod component;
pub mod rng;
pub mod signal;
pub mod stats;
pub mod time;

pub use assertion::{AssertionKind, AssertionSink, Severity, Violation};
pub use component::Clocked;
pub use rng::SimRng;
pub use signal::Register;
pub use stats::Counter;
pub use time::{Cycle, CycleDelta};
