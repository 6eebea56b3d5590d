//! Modules: collections of functions.

use crate::func::Function;

/// A whole-program RRIR module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    functions: Vec<Function>,
    /// Name of the program entry function (empty until set).
    pub entry: String,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Adds a function.
    pub fn push_function(&mut self, function: Function) {
        self.functions.push(function);
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Mutable access to all functions.
    pub fn functions_mut(&mut self) -> &mut [Function] {
        &mut self.functions
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total placed ops across all functions (Table IV's IR metric).
    pub fn placed_op_count(&self) -> usize {
        self.functions.iter().map(Function::placed_op_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        m.push_function(Function::new("a"));
        m.push_function(Function::new("b"));
        assert!(m.function("a").is_some());
        assert!(m.function("c").is_none());
    }
}
