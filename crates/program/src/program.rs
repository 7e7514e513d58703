//! The [`Program`] container and its builder.

use std::sync::Arc;

use crate::block::BasicBlock;
use crate::error::ValidateProgramError;
use crate::function::{CodeKind, Function};
use crate::ids::{BlockId, FuncId};
use crate::inst::{InstKind, Instruction};

/// Where control may go after a basic block finishes executing.
///
/// Indirect transfers carry no static target; the dynamic trace (a TIP
/// packet) resolves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Successors {
    /// Conditional branch: taken goes to `taken`, not-taken to `not_taken`.
    Cond {
        /// Taken-path block.
        taken: BlockId,
        /// Fall-through block.
        not_taken: BlockId,
    },
    /// Unconditional direct jump.
    Jump(BlockId),
    /// Indirect jump; target known only dynamically.
    Indirect,
    /// Direct call: control enters `callee`'s entry block and later
    /// returns to `return_to`.
    Call {
        /// Entry block of the callee.
        callee: BlockId,
        /// Block executed after the callee returns.
        return_to: BlockId,
    },
    /// Indirect call returning to `return_to`.
    IndirectCall {
        /// Block executed after the callee returns.
        return_to: BlockId,
    },
    /// Return to the caller (resolved against the dynamic call stack).
    Return,
    /// No terminator: execution falls through to the next block.
    Fallthrough(BlockId),
}

/// A whole program: an arena of functions and basic blocks plus an entry
/// point.
///
/// The function table and the instructions are immutable and shared: a
/// clone copies the block table (one allocation) and shares the rest, so
/// a relinked copy costs memory only for the blocks the rewriter touched.
///
/// # Examples
///
/// ```
/// use ripple_program::{CodeKind, Instruction, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb = b.add_block(main);
/// b.push_inst(bb, Instruction::other(4));
/// b.push_inst(bb, Instruction::ret());
/// let program = b.finish(main)?;
/// assert_eq!(program.num_blocks(), 1);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    functions: Arc<[Function]>,
    blocks: Vec<BasicBlock>,
    entry: FuncId,
}

impl Program {
    /// The program's entry function.
    #[inline]
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// The entry function's entry block.
    #[inline]
    pub fn entry_block(&self) -> BlockId {
        self.function(self.entry).entry()
    }

    /// Number of functions.
    #[inline]
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a basic block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All functions in id order.
    #[inline]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// All blocks in id order.
    #[inline]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block following `id` within its function, if any.
    pub fn next_block_in_function(&self, id: BlockId) -> Option<BlockId> {
        let block = self.block(id);
        let func = self.function(block.func());
        func.blocks().get(block.pos_in_func() as usize + 1).copied()
    }

    /// Static successor summary of a block (who runs next).
    ///
    /// # Panics
    ///
    /// Panics on an invalid program (e.g. a fall-through off a function
    /// end); [`Program::validate`] rejects those.
    // The panics below are the documented contract for invalid programs,
    // which `Program::validate` (run by every constructor) rules out.
    #[allow(clippy::expect_used)]
    pub fn successors(&self, id: BlockId) -> Successors {
        let block = self.block(id);
        match block.terminator() {
            Some(InstKind::CondBranch { target }) => Successors::Cond {
                taken: target,
                not_taken: self
                    .next_block_in_function(id)
                    .expect("conditional branch requires a fall-through block"),
            },
            Some(InstKind::Jump { target }) => Successors::Jump(target),
            Some(InstKind::IndirectJump) => Successors::Indirect,
            Some(InstKind::Call { target }) => Successors::Call {
                callee: self.function(target).entry(),
                return_to: self
                    .next_block_in_function(id)
                    .expect("call requires a return-to block"),
            },
            Some(InstKind::IndirectCall) => Successors::IndirectCall {
                return_to: self
                    .next_block_in_function(id)
                    .expect("indirect call requires a return-to block"),
            },
            Some(InstKind::Return) => Successors::Return,
            Some(InstKind::Other) | Some(InstKind::Invalidate { .. }) | None => {
                Successors::Fallthrough(
                    self.next_block_in_function(id)
                        .expect("fall-through requires a next block"),
                )
            }
        }
    }

    /// Total static instruction count (including injected invalidations).
    pub fn static_instruction_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.len() as u64).sum()
    }

    /// Total static code size in bytes.
    pub fn static_code_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.size_bytes())).sum()
    }

    /// Count of injected invalidate instructions across the program.
    pub fn injected_instruction_count(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| u64::from(b.injected_prefix_len()))
            .sum()
    }

    /// Checks structural invariants. Called by
    /// [`ProgramBuilder::finish`]; also useful after deserialization.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateProgramError`] found.
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        if self.entry.index() >= self.functions.len() {
            return Err(ValidateProgramError::MissingEntry(self.entry));
        }
        for func in self.functions.iter() {
            let Some(&last) = func.blocks().last() else {
                return Err(ValidateProgramError::EmptyFunction(func.id()));
            };
            for &bid in func.blocks() {
                let block = self.block(bid);
                if block.is_empty() {
                    return Err(ValidateProgramError::EmptyBlock(bid));
                }
                // Terminators only in final position.
                for inst in &block.instructions()[..block.len() - 1] {
                    if inst.kind().is_terminator() {
                        return Err(ValidateProgramError::MidBlockTerminator(bid));
                    }
                }
                match block.terminator() {
                    Some(InstKind::CondBranch { target }) => {
                        self.check_same_function(bid, target, func.id())?;
                        if self.next_block_in_function(bid).is_none() {
                            return Err(ValidateProgramError::FallthroughOffFunctionEnd(bid));
                        }
                    }
                    Some(InstKind::Jump { target }) => {
                        self.check_same_function(bid, target, func.id())?;
                    }
                    Some(InstKind::Call { target }) => {
                        if target.index() >= self.functions.len() {
                            return Err(ValidateProgramError::DanglingTarget { from: bid });
                        }
                        if self.next_block_in_function(bid).is_none() {
                            return Err(ValidateProgramError::FallthroughOffFunctionEnd(bid));
                        }
                    }
                    Some(InstKind::IndirectCall) => {
                        if self.next_block_in_function(bid).is_none() {
                            return Err(ValidateProgramError::FallthroughOffFunctionEnd(bid));
                        }
                    }
                    Some(InstKind::Return) | Some(InstKind::IndirectJump) => {}
                    _ => {
                        // Fall-through: fine except for the function's last block.
                        if bid == last {
                            return Err(ValidateProgramError::FallthroughOffFunctionEnd(bid));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_same_function(
        &self,
        from: BlockId,
        to: BlockId,
        func: FuncId,
    ) -> Result<(), ValidateProgramError> {
        if to.index() >= self.blocks.len() {
            return Err(ValidateProgramError::DanglingTarget { from });
        }
        if self.block(to).func() != func {
            return Err(ValidateProgramError::CrossFunctionBranch { from, to });
        }
        Ok(())
    }

    pub(crate) fn blocks_mut(&mut self) -> &mut [BasicBlock] {
        &mut self.blocks
    }
}

/// Incrementally constructs a [`Program`].
///
/// Functions and blocks are created first, instructions appended, and
/// [`ProgramBuilder::finish`] validates the result.
///
/// Every block's instructions go to one flat buffer that becomes the
/// program's shared instruction arena. Each block owns one contiguous run
/// of it; pushing to a block whose run is not the buffer's last moves that
/// run to the end first, so filling blocks one after another (as a
/// compiler emits them) never moves anything.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Function>,
    /// Each block's function, position in it and run in `code`.
    blocks: Vec<BlockRun>,
    code: Vec<Instruction>,
}

/// A block under construction: its place in its function and its
/// `start..start + len` run in the builder's buffer.
#[derive(Debug, Clone, Copy)]
struct BlockRun {
    func: FuncId,
    pos_in_func: u32,
    start: usize,
    len: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function with the given diagnostic name and code kind.
    pub fn add_function(&mut self, name: impl Into<String>, kind: CodeKind) -> FuncId {
        let id = FuncId::new(self.functions.len() as u32);
        self.functions.push(Function::new(id, name.into(), kind));
        id
    }

    /// Adds an empty block at the end of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` was not created by this builder.
    pub fn add_block(&mut self, func: FuncId) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        let f = &mut self.functions[func.index()];
        let pos_in_func = f.blocks().len() as u32;
        f.push_block(id);
        self.blocks.push(BlockRun {
            func,
            pos_in_func,
            start: self.code.len(),
            len: 0,
        });
        id
    }

    /// Appends an instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not created by this builder.
    pub fn push_inst(&mut self, block: BlockId, inst: Instruction) {
        let run = &mut self.blocks[block.index()];
        let end = self.code.len();
        if run.start + run.len != end {
            // Not the latest run: move it to the end, leaving a dead copy.
            self.code.extend_from_within(run.start..run.start + run.len);
            run.start = end;
        }
        self.code.push(inst);
        run.len += 1;
    }

    /// Number of blocks created so far.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateProgramError`] if the program is structurally
    /// invalid (empty function/block, dangling branch target, possible
    /// fall-through off a function end, ...), or
    /// [`ValidateProgramError::ArenaOverflow`] if the instruction buffer
    /// outgrew the arena's `u32` offsets.
    pub fn finish(self, entry: FuncId) -> Result<Program, ValidateProgramError> {
        check_arena_capacity(self.code.len())?;
        let code: Arc<[Instruction]> = self.code.into();
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, run)| {
                BasicBlock::new(
                    BlockId::new(i as u32),
                    run.func,
                    run.pos_in_func,
                    code.clone(),
                    run.start as u32,
                    run.len as u32,
                )
            })
            .collect();
        let program = Program {
            functions: self.functions.into(),
            blocks,
            entry,
        };
        program.validate()?;
        Ok(program)
    }
}

/// The arena-size guard [`ProgramBuilder::finish`] runs over its buffer
/// length: block runs are addressed by `u32` offsets. Kept as a
/// standalone function so the bound is unit-testable without building
/// four billion instructions.
fn check_arena_capacity(len: usize) -> Result<(), ValidateProgramError> {
    match u32::try_from(len) {
        Ok(_) => Ok(()),
        Err(_) => Err(ValidateProgramError::ArenaOverflow {
            instructions: len as u64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{line_origins, Layout, LayoutConfig, LineAddr, LineMapper};

    /// A program without code bytes cannot be built (the builder rejects
    /// empty functions and blocks), but the linker and the dense line
    /// tables must still handle one: no line bounds, no origins, and an
    /// identity mapper.
    #[test]
    fn program_without_code_bytes_has_no_lines() {
        let program = Program {
            functions: Arc::new([]),
            blocks: Vec::new(),
            entry: FuncId::new(0),
        };
        let layout = Layout::new(&program, &LayoutConfig::default());
        assert_eq!(layout.line_bounds(), None);
        assert!(layout.line_range().is_empty());
        assert_eq!(layout.footprint_lines(), 0);
        let line = LayoutConfig::default().base_addr.line();
        let origins = line_origins(&program, &layout);
        assert_eq!(origins.get(line), None);
        assert_eq!(origins.iter().count(), 0);
        let mapper = LineMapper::new(&program, &layout, &layout);
        assert!(mapper.is_empty());
        assert_eq!(mapper.map(line), line);
        assert_eq!(mapper.map(LineAddr::new(u64::MAX)), LineAddr::new(u64::MAX));
    }

    fn two_function_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let helper = b.add_function("helper", CodeKind::Static);

        let m0 = b.add_block(main);
        let m1 = b.add_block(main);
        let m2 = b.add_block(main);
        let h0 = b.add_block(helper);

        b.push_inst(m0, Instruction::other(4));
        b.push_inst(m0, Instruction::cond_branch(m2));
        b.push_inst(m1, Instruction::call(helper));
        b.push_inst(m2, Instruction::ret());
        b.push_inst(h0, Instruction::other(8));
        b.push_inst(h0, Instruction::ret());

        b.finish(main).expect("valid program")
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = two_function_program();
        assert_eq!(p.num_functions(), 2);
        assert_eq!(p.num_blocks(), 4);
        assert_eq!(p.entry_block(), BlockId::new(0));
    }

    #[test]
    fn successors_cond() {
        let p = two_function_program();
        match p.successors(BlockId::new(0)) {
            Successors::Cond { taken, not_taken } => {
                assert_eq!(taken, BlockId::new(2));
                assert_eq!(not_taken, BlockId::new(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn successors_call() {
        let p = two_function_program();
        match p.successors(BlockId::new(1)) {
            Successors::Call { callee, return_to } => {
                assert_eq!(callee, BlockId::new(3));
                assert_eq!(return_to, BlockId::new(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn successors_return() {
        let p = two_function_program();
        assert_eq!(p.successors(BlockId::new(2)), Successors::Return);
    }

    #[test]
    fn empty_function_rejected() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let _empty = b.add_function("empty", CodeKind::Static);
        let m0 = b.add_block(main);
        b.push_inst(m0, Instruction::ret());
        assert_eq!(
            b.finish(main),
            Err(ValidateProgramError::EmptyFunction(FuncId::new(1)))
        );
    }

    #[test]
    fn fallthrough_off_end_rejected() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let m0 = b.add_block(main);
        b.push_inst(m0, Instruction::other(4));
        assert_eq!(
            b.finish(main),
            Err(ValidateProgramError::FallthroughOffFunctionEnd(
                BlockId::new(0)
            ))
        );
    }

    #[test]
    fn cross_function_branch_rejected() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let other = b.add_function("other", CodeKind::Static);
        let m0 = b.add_block(main);
        let o0 = b.add_block(other);
        b.push_inst(m0, Instruction::jump(o0));
        b.push_inst(o0, Instruction::ret());
        assert_eq!(
            b.finish(main),
            Err(ValidateProgramError::CrossFunctionBranch { from: m0, to: o0 })
        );
    }

    #[test]
    fn mid_block_terminator_rejected() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let m0 = b.add_block(main);
        b.push_inst(m0, Instruction::ret());
        b.push_inst(m0, Instruction::other(4));
        assert_eq!(
            b.finish(main),
            Err(ValidateProgramError::MidBlockTerminator(m0))
        );
    }

    #[test]
    fn static_counts() {
        let p = two_function_program();
        assert_eq!(p.static_instruction_count(), 6);
        assert_eq!(p.injected_instruction_count(), 0);
        assert_eq!(p.static_code_bytes(), 4 + 4 + 5 + 1 + 8 + 1);
    }

    #[test]
    fn arena_capacity_guard_rejects_offsets_beyond_u32() {
        assert_eq!(check_arena_capacity(0), Ok(()));
        assert_eq!(check_arena_capacity(u32::MAX as usize), Ok(()));
        assert_eq!(
            check_arena_capacity(u32::MAX as usize + 1),
            Err(ValidateProgramError::ArenaOverflow {
                instructions: 1 << 32
            })
        );
        assert_eq!(
            check_arena_capacity((1 << 33) + 5),
            Err(ValidateProgramError::ArenaOverflow {
                instructions: (1 << 33) + 5
            })
        );
    }

    #[test]
    fn interleaved_pushes_keep_every_block_contiguous() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let m0 = b.add_block(main);
        let m1 = b.add_block(main);
        b.push_inst(m0, Instruction::other(1));
        b.push_inst(m1, Instruction::other(2));
        b.push_inst(m0, Instruction::other(3));
        b.push_inst(m1, Instruction::ret());
        let p = b.finish(main).unwrap();
        assert_eq!(
            p.block(m0).instructions(),
            &[Instruction::other(1), Instruction::other(3)]
        );
        assert_eq!(
            p.block(m1).instructions(),
            &[Instruction::other(2), Instruction::ret()]
        );
    }

    #[test]
    fn clones_share_the_arena_and_compare_by_content() {
        let p = two_function_program();
        let q = p.clone();
        assert_eq!(p, q);
        assert!(Arc::ptr_eq(&p.functions, &q.functions));
        // An independently built copy has its own arena and still equals.
        assert_eq!(p, two_function_program());
    }
}
