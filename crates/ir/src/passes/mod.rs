//! Transformation passes and the pass manager.

mod dce;
mod promote;

pub use dce::DeadCodeElimination;
pub use promote::PromoteCells;

use crate::module::Module;
use crate::verify::{verify, VerifyError};

/// A module transformation.
pub trait Pass {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Applies the transformation. Returns `true` if anything changed.
    fn run(&self, module: &mut Module) -> bool;
}

/// Runs passes in sequence, optionally verifying the module after each.
///
/// # Example
///
/// ```
/// use rr_ir::passes::{DeadCodeElimination, PromoteCells};
/// use rr_ir::{Module, PassManager};
///
/// let mut module = Module::new();
/// let mut pm = PassManager::new();
/// pm.add(PromoteCells);
/// pm.add(DeadCodeElimination);
/// pm.run(&mut module).expect("passes keep the module valid");
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_between: bool,
}

impl PassManager {
    /// Creates a pass manager that verifies after every pass.
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new(), verify_between: true }
    }

    /// Disables inter-pass verification (faster; for trusted pipelines).
    pub fn without_verification(mut self) -> PassManager {
        self.verify_between = false;
        self
    }

    /// Appends a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs all passes in order.
    ///
    /// # Errors
    ///
    /// Returns the pass name and the verifier finding if a pass breaks the
    /// module.
    pub fn run(&self, module: &mut Module) -> Result<bool, (String, VerifyError)> {
        let mut changed = false;
        for pass in &self.passes {
            changed |= pass.run(module);
            if self.verify_between {
                verify(module).map_err(|e| (pass.name().to_owned(), e))?;
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Function;
    use crate::ops::{Op, Terminator};

    struct Breaker;
    impl Pass for Breaker {
        fn name(&self) -> &'static str {
            "breaker"
        }
        fn run(&self, module: &mut Module) -> bool {
            // Remove the terminator of the first block of each function.
            for f in module.functions_mut() {
                let entry = f.entry();
                f.set_terminator(entry, Terminator::Unset);
            }
            true
        }
    }

    #[test]
    fn verification_catches_breaking_pass() {
        let mut m = Module::new();
        let mut f = Function::new("f");
        let e = f.entry();
        f.append(e, Op::Const(1));
        f.set_terminator(e, Terminator::Ret);
        m.push_function(f);
        let mut pm = PassManager::new();
        pm.add(Breaker);
        let err = pm.run(&mut m).unwrap_err();
        assert_eq!(err.0, "breaker");
    }
}
