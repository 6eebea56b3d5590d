//! A reference interpreter for RRIR.
//!
//! Executes a [`Module`] directly — no lowering — against a sparse byte
//! memory and the same four runtime services as the machine. Its purpose
//! is *differential testing of passes*: a transformation is sound when
//! the interpreted behaviour (output bytes + exit status) of the module
//! is unchanged, which the harden/optimization test suites check without
//! paying for a full lower-and-emulate round trip.

use crate::func::Function;
use crate::module::Module;
use crate::ops::{BinOp, Op, Pred, Terminator, Width};
use crate::types::{BlockId, Cell, ValueId};
use std::collections::HashMap;
use std::fmt;

/// How an interpreted run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpOutcome {
    /// `svc 0` — normal program exit with a code.
    Exited(u64),
    /// An `abort` terminator was reached (fault response / halt).
    Aborted,
    /// The entry function returned.
    Returned,
    /// The step budget ran out.
    StepLimit,
}

/// An execution error (the interpreter's crash taxonomy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// `udiv` by zero.
    DivideByZero,
    /// Direct call to a function the module does not contain.
    UnknownCallee(String),
    /// Ops the interpreter cannot evaluate ([`Op::SymAddr`],
    /// [`Op::CallIndirect`] — they need a linked address space).
    Unsupported(&'static str),
    /// `svc` with an unassigned service number.
    BadService(u8),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivideByZero => write!(f, "division by zero"),
            InterpError::UnknownCallee(name) => write!(f, "call to unknown function `{name}`"),
            InterpError::Unsupported(what) => write!(f, "unsupported op: {what}"),
            InterpError::BadService(n) => write!(f, "unknown service {n}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The observable behaviour of one interpreted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpResult {
    /// How the run ended.
    pub outcome: InterpOutcome,
    /// Bytes written through `svc 1`/`svc 3`.
    pub output: Vec<u8>,
    /// Ops evaluated.
    pub steps: u64,
}

/// The interpreter state.
#[derive(Debug, Clone)]
pub struct Interp<'a> {
    module: &'a Module,
    cells: [u64; Cell::COUNT as usize],
    memory: HashMap<u64, u8>,
    input: Vec<u8>,
    input_pos: usize,
    output: Vec<u8>,
    steps: u64,
    max_steps: u64,
    exited: Option<u64>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over `module` with the given input stream.
    pub fn new(module: &'a Module, input: &[u8]) -> Interp<'a> {
        Interp {
            module,
            cells: [0; Cell::COUNT as usize],
            memory: HashMap::new(),
            input: input.to_vec(),
            input_pos: 0,
            output: Vec::new(),
            steps: 0,
            max_steps: 10_000_000,
            exited: None,
        }
    }

    /// Overrides the step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Interp<'a> {
        self.max_steps = max_steps;
        self
    }

    /// Reads a cell after the run.
    pub fn cell(&self, cell: Cell) -> u64 {
        self.cells[cell.0 as usize]
    }

    /// Runs the module's entry function to completion.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(mut self) -> Result<InterpResult, InterpError> {
        let entry = self
            .module
            .function(&self.module.entry)
            .ok_or_else(|| InterpError::UnknownCallee(self.module.entry.clone()))?;
        let outcome = match self.run_function(entry)? {
            Some(()) => InterpOutcome::Returned,
            None => match self.exited {
                Some(code) => InterpOutcome::Exited(code),
                None if self.steps >= self.max_steps => InterpOutcome::StepLimit,
                None => InterpOutcome::Aborted,
            },
        };
        Ok(InterpResult {
            outcome: finalize(outcome, self.exited),
            output: self.output,
            steps: self.steps,
        })
    }

    /// Executes one function; `Ok(Some(()))` means it returned normally,
    /// `Ok(None)` means execution stopped (exit, abort, or budget).
    fn run_function(&mut self, f: &Function) -> Result<Option<()>, InterpError> {
        let mut values: Vec<u64> = vec![0; f.value_count()];
        let mut block = f.entry();
        let mut prev_block: Option<BlockId> = None;
        loop {
            // Phis first, evaluated as a parallel assignment.
            let block_ref = f.block(block);
            let mut phi_updates: Vec<(ValueId, u64)> = Vec::new();
            let mut body_start = 0;
            for (i, &v) in block_ref.ops.iter().enumerate() {
                if let Op::Phi { incomings } = f.op(v) {
                    let pred = prev_block.expect("phi in entry block is invalid");
                    let (_, incoming) = incomings
                        .iter()
                        .find(|(from, _)| *from == pred)
                        .expect("verified phis cover all predecessors");
                    phi_updates.push((v, values[incoming.index()]));
                    body_start = i + 1;
                } else {
                    break;
                }
            }
            for (v, value) in phi_updates {
                values[v.index()] = value;
            }

            for &v in &block_ref.ops[body_start..] {
                if self.steps >= self.max_steps {
                    return Ok(None);
                }
                self.steps += 1;
                let result = self.eval(f, &values, v)?;
                values[v.index()] = result;
                if self.exited.is_some() {
                    return Ok(None);
                }
            }

            match block_ref.term.clone() {
                Terminator::Br(next) => {
                    prev_block = Some(block);
                    block = next;
                }
                Terminator::CondBr { cond, if_true, if_false } => {
                    prev_block = Some(block);
                    block = if values[cond.index()] != 0 { if_true } else { if_false };
                }
                Terminator::Ret => return Ok(Some(())),
                Terminator::Abort => return Ok(None),
                Terminator::Unset => unreachable!("verified modules have terminators"),
            }
            if self.steps >= self.max_steps {
                return Ok(None);
            }
        }
    }

    fn eval(&mut self, f: &Function, values: &[u64], v: ValueId) -> Result<u64, InterpError> {
        let get = |id: ValueId| values[id.index()];
        Ok(match f.op(v).clone() {
            Op::Const(c) => c,
            Op::SymAddr(_) => return Err(InterpError::Unsupported("symaddr")),
            Op::BinOp { op, lhs, rhs } => {
                let (a, b) = (get(lhs), get(rhs));
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Udiv => {
                        if b == 0 {
                            return Err(InterpError::DivideByZero);
                        }
                        a / b
                    }
                    BinOp::Shl => a << (b & 63),
                    BinOp::Lshr => a >> (b & 63),
                    BinOp::Ashr => ((a as i64) >> (b & 63)) as u64,
                }
            }
            Op::Not(a) => !get(a),
            Op::Neg(a) => get(a).wrapping_neg(),
            Op::ICmp { pred, lhs, rhs } => {
                let (a, b) = (get(lhs), get(rhs));
                u64::from(match pred {
                    Pred::Eq => a == b,
                    Pred::Ne => a != b,
                    Pred::Ult => a < b,
                    Pred::Ule => a <= b,
                    Pred::Slt => (a as i64) < (b as i64),
                    Pred::Sle => (a as i64) <= (b as i64),
                })
            }
            Op::Select { cond, if_true, if_false } => {
                if get(cond) != 0 {
                    get(if_true)
                } else {
                    get(if_false)
                }
            }
            Op::Load { addr, width } => {
                let base = get(addr);
                let len = match width {
                    Width::B => 1,
                    Width::Q => 8,
                };
                let mut out: u64 = 0;
                for i in 0..len {
                    let byte = self.memory.get(&base.wrapping_add(i)).copied().unwrap_or(0);
                    out |= u64::from(byte) << (8 * i);
                }
                out
            }
            Op::Store { addr, value, width } => {
                let base = get(addr);
                let val = get(value);
                let len = match width {
                    Width::B => 1,
                    Width::Q => 8,
                };
                for i in 0..len {
                    self.memory.insert(base.wrapping_add(i), (val >> (8 * i)) as u8);
                }
                0
            }
            Op::ReadCell(cell) => self.cells[cell.0 as usize],
            Op::WriteCell { cell, value } => {
                self.cells[cell.0 as usize] = get(value);
                0
            }
            Op::Call { callee } => {
                let callee_fn =
                    self.module.function(&callee).ok_or(InterpError::UnknownCallee(callee))?;
                self.run_function(callee_fn)?;
                0
            }
            Op::CallIndirect { .. } => return Err(InterpError::Unsupported("callind")),
            Op::Svc { num } => {
                match num {
                    0 => self.exited = Some(self.cells[1]),
                    1 => self.output.push(self.cells[1] as u8),
                    2 => {
                        self.cells[0] = match self.input.get(self.input_pos) {
                            Some(&b) => {
                                self.input_pos += 1;
                                u64::from(b)
                            }
                            None => u64::MAX,
                        };
                    }
                    3 => self.output.extend_from_slice(self.cells[1].to_string().as_bytes()),
                    other => return Err(InterpError::BadService(other)),
                }
                0
            }
            Op::Phi { .. } => unreachable!("phis handled at block entry"),
        })
    }
}

fn finalize(outcome: InterpOutcome, exited: Option<u64>) -> InterpOutcome {
    match exited {
        Some(code) => InterpOutcome::Exited(code),
        None => outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    fn module_with_entry(f: Function) -> Module {
        let mut m = Module::new();
        m.entry = f.name.clone();
        m.push_function(f);
        m
    }

    #[test]
    fn arithmetic_and_exit() {
        let mut f = Function::new("main");
        let e = f.entry();
        let a = f.append(e, Op::Const(6));
        let b = f.append(e, Op::Const(7));
        let p = f.append(e, Op::BinOp { op: BinOp::Mul, lhs: a, rhs: b });
        f.append(e, Op::WriteCell { cell: Cell::reg(1), value: p });
        f.append(e, Op::Svc { num: 0 });
        f.set_terminator(e, Terminator::Abort);
        let m = module_with_entry(f);
        let result = Interp::new(&m, &[]).run().unwrap();
        assert_eq!(result.outcome, InterpOutcome::Exited(42));
    }

    #[test]
    fn io_round_trip() {
        // Echo one input byte, exit 0.
        let mut f = Function::new("main");
        let e = f.entry();
        f.append(e, Op::Svc { num: 2 });
        let r0 = f.append(e, Op::ReadCell(Cell::reg(0)));
        f.append(e, Op::WriteCell { cell: Cell::reg(1), value: r0 });
        f.append(e, Op::Svc { num: 1 });
        let zero = f.append(e, Op::Const(0));
        f.append(e, Op::WriteCell { cell: Cell::reg(1), value: zero });
        f.append(e, Op::Svc { num: 0 });
        f.set_terminator(e, Terminator::Abort);
        let m = module_with_entry(f);
        let result = Interp::new(&m, b"Q").run().unwrap();
        assert_eq!(result.output, b"Q");
        assert_eq!(result.outcome, InterpOutcome::Exited(0));
    }

    #[test]
    fn loop_with_phi() {
        // sum 1..=5 via a loop with two phis.
        let mut f = Function::new("main");
        let e = f.entry();
        let body = f.new_block();
        let done = f.new_block();
        let one = f.append(e, Op::Const(1));
        let zero = f.append(e, Op::Const(0));
        f.set_terminator(e, Terminator::Br(body));
        let i_phi = f.append(body, Op::Phi { incomings: vec![] });
        let s_phi = f.append(body, Op::Phi { incomings: vec![] });
        let s2 = f.append(body, Op::BinOp { op: BinOp::Add, lhs: s_phi, rhs: i_phi });
        let i2 = f.append(body, Op::BinOp { op: BinOp::Add, lhs: i_phi, rhs: one });
        let six = f.append(body, Op::Const(6));
        let cont = f.append(body, Op::ICmp { pred: Pred::Ult, lhs: i2, rhs: six });
        f.set_terminator(body, Terminator::CondBr { cond: cont, if_true: body, if_false: done });
        *f.op_mut(i_phi) = Op::Phi { incomings: vec![(e, one), (body, i2)] };
        *f.op_mut(s_phi) = Op::Phi { incomings: vec![(e, zero), (body, s2)] };
        f.append(done, Op::WriteCell { cell: Cell::reg(1), value: s2 });
        f.append(done, Op::Svc { num: 0 });
        f.set_terminator(done, Terminator::Abort);
        let m = module_with_entry(f);
        crate::verify(&m).unwrap();
        let result = Interp::new(&m, &[]).run().unwrap();
        assert_eq!(result.outcome, InterpOutcome::Exited(15));
    }

    #[test]
    fn memory_and_calls() {
        let mut helper = Function::new("store7");
        let he = helper.entry();
        let addr = helper.append(he, Op::Const(0x100));
        let seven = helper.append(he, Op::Const(7));
        helper.append(he, Op::Store { addr, value: seven, width: Width::Q });
        helper.set_terminator(he, Terminator::Ret);

        let mut f = Function::new("main");
        let e = f.entry();
        f.append(e, Op::Call { callee: "store7".into() });
        let addr = f.append(e, Op::Const(0x100));
        let loaded = f.append(e, Op::Load { addr, width: Width::Q });
        f.append(e, Op::WriteCell { cell: Cell::reg(1), value: loaded });
        f.append(e, Op::Svc { num: 0 });
        f.set_terminator(e, Terminator::Abort);

        let mut m = Module::new();
        m.entry = "main".into();
        m.push_function(helper);
        m.push_function(f);
        let result = Interp::new(&m, &[]).run().unwrap();
        assert_eq!(result.outcome, InterpOutcome::Exited(7));
    }

    #[test]
    fn byte_memory_is_little_endian() {
        let mut f = Function::new("main");
        let e = f.entry();
        let addr = f.append(e, Op::Const(0x40));
        let value = f.append(e, Op::Const(0x4142));
        f.append(e, Op::Store { addr, value, width: Width::Q });
        let lo = f.append(e, Op::Load { addr, width: Width::B });
        f.append(e, Op::WriteCell { cell: Cell::reg(1), value: lo });
        f.append(e, Op::Svc { num: 0 });
        f.set_terminator(e, Terminator::Abort);
        let m = module_with_entry(f);
        let result = Interp::new(&m, &[]).run().unwrap();
        assert_eq!(result.outcome, InterpOutcome::Exited(0x42));
    }

    #[test]
    fn errors_and_budget() {
        // Divide by zero.
        let mut f = Function::new("main");
        let e = f.entry();
        let a = f.append(e, Op::Const(4));
        let z = f.append(e, Op::Const(0));
        f.append(e, Op::BinOp { op: BinOp::Udiv, lhs: a, rhs: z });
        f.set_terminator(e, Terminator::Abort);
        let m = module_with_entry(f);
        assert_eq!(Interp::new(&m, &[]).run().unwrap_err(), InterpError::DivideByZero);

        // Infinite loop hits the step budget.
        let mut f = Function::new("main");
        let e = f.entry();
        f.append(e, Op::Const(1));
        f.set_terminator(e, Terminator::Br(e));
        let m = module_with_entry(f);
        let result = Interp::new(&m, &[]).with_max_steps(100).run().unwrap();
        assert_eq!(result.outcome, InterpOutcome::StepLimit);

        // Abort.
        let mut f = Function::new("main");
        let e = f.entry();
        f.set_terminator(e, Terminator::Abort);
        let m = module_with_entry(f);
        assert_eq!(Interp::new(&m, &[]).run().unwrap().outcome, InterpOutcome::Aborted);
    }
}
