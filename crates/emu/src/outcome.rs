//! Run outcomes and the crash taxonomy.

use crate::memory::AccessKind;
use rr_isa::DecodeError;
use std::fmt;

/// A machine-level fault that terminates execution.
///
/// This is the crash taxonomy fault-injection campaigns classify outcomes
/// with; anything here counts as "crashed" for the purpose of deciding
/// whether an injected fault was *successful* (it wasn't — crashes are
/// detectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuFault {
    /// The bytes at the program counter do not decode (illegal instruction).
    IllegalInstruction(DecodeError),
    /// A data access violated the memory map.
    MemoryFault {
        /// The faulting address.
        addr: u64,
        /// What kind of access failed.
        access: AccessKind,
    },
    /// The program counter left executable memory.
    ExecFault {
        /// The faulting program counter.
        addr: u64,
    },
    /// `udiv` by zero.
    DivideByZero,
    /// `svc` with an unassigned service number.
    BadService(u8),
    /// `halt` executed (abnormal stop; normal exit is `svc 0`).
    Halted,
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::IllegalInstruction(e) => write!(f, "illegal instruction: {e}"),
            CpuFault::MemoryFault { addr, access } => {
                write!(f, "memory fault: {access} at {addr:#x}")
            }
            CpuFault::ExecFault { addr } => write!(f, "execution left mapped code at {addr:#x}"),
            CpuFault::DivideByZero => write!(f, "division by zero"),
            CpuFault::BadService(n) => write!(f, "unknown service {n}"),
            CpuFault::Halted => write!(f, "halt instruction executed"),
        }
    }
}

impl std::error::Error for CpuFault {}

/// How a bounded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The program exited via `svc 0`.
    Exited {
        /// The exit code from `r1`.
        code: u64,
    },
    /// The machine faulted.
    Crashed {
        /// Why.
        fault: CpuFault,
        /// Program counter at the fault.
        pc: u64,
    },
    /// The step budget ran out (hang / infinite loop).
    TimedOut,
}

impl RunOutcome {
    /// Whether the program completed normally.
    pub fn is_exit(&self) -> bool {
        matches!(self, RunOutcome::Exited { .. })
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Exited { code } => write!(f, "exited with code {code}"),
            RunOutcome::Crashed { fault, pc } => write!(f, "crashed at {pc:#x}: {fault}"),
            RunOutcome::TimedOut => write!(f, "timed out"),
        }
    }
}

/// The complete observable behaviour of one run: what oracles compare.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Execution {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Everything the program wrote.
    pub output: Vec<u8>,
    /// Instructions executed.
    pub steps: u64,
}

impl Execution {
    /// Whether two executions are behaviourally identical from an
    /// attacker-observable standpoint (outcome and output; step counts may
    /// differ, e.g. after patching).
    pub fn same_behavior(&self, other: &Execution) -> bool {
        self.outcome == other.outcome && self.output == other.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert!(RunOutcome::Exited { code: 0 }.is_exit());
    }

    #[test]
    fn behaviour_ignores_steps() {
        let a = Execution {
            outcome: RunOutcome::Exited { code: 1 },
            output: b"ok".to_vec(),
            steps: 10,
        };
        let mut b = a.clone();
        b.steps = 99;
        assert!(a.same_behavior(&b));
        b.output = b"no".to_vec();
        assert!(!a.same_behavior(&b));
    }

    #[test]
    fn displays_are_informative() {
        let fault = CpuFault::MemoryFault { addr: 0x42, access: AccessKind::Write };
        assert!(fault.to_string().contains("0x42"));
        let outcome = RunOutcome::Crashed { fault, pc: 0x1000 };
        assert!(outcome.to_string().contains("0x1000"));
    }
}
