//! Textual rendering of RRIR for debugging and documentation.

use crate::func::Function;
use crate::module::Module;
use crate::ops::{Op, Terminator};
use std::fmt;

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.entry.is_empty() {
            writeln!(f, "; entry = @{}", self.entry)?;
        }
        for (i, function) in self.functions().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{function}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func @{} {{", self.name)?;
        for b in self.block_ids() {
            writeln!(f, "{b}:")?;
            let block = self.block(b);
            for &v in &block.ops {
                writeln!(f, "    {v} = {}", OpFmt(self.op(v)))?;
            }
            writeln!(f, "    {}", TermFmt(&block.term))?;
        }
        writeln!(f, "}}")
    }
}

struct OpFmt<'a>(&'a Op);

impl fmt::Display for OpFmt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Op::Const(c) => write!(f, "const {c:#x}"),
            Op::SymAddr(s) => write!(f, "symaddr @{s}"),
            Op::BinOp { op, lhs, rhs } => write!(f, "{} {lhs}, {rhs}", op.mnemonic()),
            Op::Not(v) => write!(f, "not {v}"),
            Op::Neg(v) => write!(f, "neg {v}"),
            Op::ICmp { pred, lhs, rhs } => write!(f, "icmp {} {lhs}, {rhs}", pred.mnemonic()),
            Op::Select { cond, if_true, if_false } => {
                write!(f, "select {cond}, {if_true}, {if_false}")
            }
            Op::Load { addr, width } => write!(f, "load.{width} [{addr}]"),
            Op::Store { addr, value, width } => write!(f, "store.{width} [{addr}], {value}"),
            Op::ReadCell(c) => write!(f, "readcell {c}"),
            Op::WriteCell { cell, value } => write!(f, "writecell {cell}, {value}"),
            Op::Call { callee } => write!(f, "call @{callee}"),
            Op::CallIndirect { target } => write!(f, "callind {target}"),
            Op::Svc { num } => write!(f, "svc {num}"),
            Op::Phi { incomings } => {
                write!(f, "phi ")?;
                for (i, (block, value)) in incomings.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{block}: {value}]")?;
                }
                Ok(())
            }
        }
    }
}

struct TermFmt<'a>(&'a Terminator);

impl fmt::Display for TermFmt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Terminator::Unset => write!(f, "<unset>"),
            Terminator::Br(b) => write!(f, "br {b}"),
            Terminator::CondBr { cond, if_true, if_false } => {
                write!(f, "condbr {cond}, {if_true}, {if_false}")
            }
            Terminator::Ret => write!(f, "ret"),
            Terminator::Abort => write!(f, "abort"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BinOp, Pred};
    use crate::types::Cell;

    #[test]
    fn renders_representative_module() {
        let mut m = Module::new();
        m.entry = "main".into();
        let mut f = Function::new("main");
        let e = f.entry();
        let a = f.append(e, Op::Const(7));
        let r = f.append(e, Op::ReadCell(Cell::reg(1)));
        let s = f.append(e, Op::BinOp { op: BinOp::Add, lhs: a, rhs: r });
        let c = f.append(e, Op::ICmp { pred: Pred::Eq, lhs: s, rhs: a });
        let t = f.new_block();
        f.set_terminator(e, Terminator::CondBr { cond: c, if_true: t, if_false: t });
        f.set_terminator(t, Terminator::Ret);
        m.push_function(f);
        let text = m.to_string();
        for needle in ["func @main", "readcell r1", "icmp eq", "condbr", "bb1:", "ret"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
