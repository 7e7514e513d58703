//! Basic blocks.

use std::fmt;
use std::sync::Arc;

use crate::ids::{BlockId, FuncId};
use crate::inst::{InstKind, Instruction};

/// A basic block: a straight-line sequence of instructions whose only
/// control transfer (if any) is its final, terminating instruction.
///
/// After Ripple rewrites a program, a block may additionally carry a prefix
/// of injected [`InstKind::Invalidate`] instructions before its original
/// instructions; [`BasicBlock::injected_prefix_len`] exposes where the
/// original code begins.
///
/// A block does not own its instructions: it is a `start..start + len`
/// view into immutable shared storage. Every block of a built program
/// views the program's one instruction arena, so cloning a program (or a
/// block) copies no instructions. Only a block the rewriter touches gets
/// storage of its own, holding its injected prefix and its original
/// instructions. Equality compares instruction content, never storage.
#[derive(Clone)]
pub struct BasicBlock {
    id: BlockId,
    func: FuncId,
    pos_in_func: u32,
    code: Arc<[Instruction]>,
    start: u32,
    len: u32,
    injected_prefix: u32,
}

impl BasicBlock {
    /// A block viewing `code[start..start + len]`.
    pub(crate) fn new(
        id: BlockId,
        func: FuncId,
        pos_in_func: u32,
        code: Arc<[Instruction]>,
        start: u32,
        len: u32,
    ) -> Self {
        debug_assert!(start as usize + len as usize <= code.len());
        BasicBlock {
            id,
            func,
            pos_in_func,
            code,
            start,
            len,
            injected_prefix: 0,
        }
    }

    /// This block's id.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The function this block belongs to.
    #[inline]
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// Zero-based position of this block within its function's block list.
    #[inline]
    pub fn pos_in_func(&self) -> u32 {
        self.pos_in_func
    }

    /// All instructions, including any injected invalidation prefix.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        let start = self.start as usize;
        &self.code[start..start + self.len as usize]
    }

    /// The number of injected invalidation instructions at the head of this
    /// block (zero for blocks Ripple has not touched).
    #[inline]
    pub fn injected_prefix_len(&self) -> u32 {
        self.injected_prefix
    }

    /// The block's original instructions, excluding any injected prefix.
    #[inline]
    pub fn original_instructions(&self) -> &[Instruction] {
        &self.instructions()[self.injected_prefix as usize..]
    }

    /// Byte size of the injected prefix.
    pub fn injected_prefix_bytes(&self) -> u32 {
        self.instructions()[..self.injected_prefix as usize]
            .iter()
            .map(|i| u32::from(i.size_bytes()))
            .sum()
    }

    /// Total encoded size of the block in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.instructions()
            .iter()
            .map(|i| u32::from(i.size_bytes()))
            .sum()
    }

    /// Number of instructions (including injected ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block's terminator, if its last instruction transfers control.
    ///
    /// Blocks without a terminator fall through to the next block in
    /// function order.
    pub fn terminator(&self) -> Option<InstKind> {
        self.instructions()
            .last()
            .map(|i| i.kind())
            .filter(|k| k.is_terminator())
    }

    /// Injects `invalidates` at the head of this block, recording them as
    /// prefix instructions. The block moves to storage of its own. Used by
    /// the rewriter.
    pub(crate) fn inject_prefix(&mut self, invalidates: &[Instruction]) {
        debug_assert!(
            invalidates.iter().all(|i| i.kind().is_invalidate()),
            "only invalidate instructions may be injected"
        );
        let code: Arc<[Instruction]> = invalidates
            .iter()
            .chain(self.instructions())
            .copied()
            .collect();
        self.start = 0;
        self.len = code.len() as u32;
        self.code = code;
        self.injected_prefix += invalidates.len() as u32;
    }

    /// Rewrites injected invalidate operands. Used by the rewriter after
    /// relinking to translate old-layout lines to new-layout lines.
    ///
    /// Storage this block alone holds is edited in place; storage it
    /// shares (with a clone of its program) is copied first, so the edit
    /// never shows through another program.
    pub(crate) fn map_invalidate_operands(
        &mut self,
        mut f: impl FnMut(crate::addr::LineAddr) -> crate::addr::LineAddr,
    ) {
        let prefix = self.injected_prefix as usize;
        if prefix == 0 {
            return;
        }
        // A prefixed block always has storage of its own (see `inject_prefix`), so
        // a shared copy never drags the program's arena along.
        let start = self.start as usize;
        for inst in &mut Arc::make_mut(&mut self.code)[start..start + prefix] {
            if let InstKind::Invalidate { line } = inst.kind() {
                *inst = Instruction::invalidate(f(line));
            }
        }
    }
}

impl PartialEq for BasicBlock {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.func == other.func
            && self.pos_in_func == other.pos_in_func
            && self.injected_prefix == other.injected_prefix
            && self.instructions() == other.instructions()
    }
}

impl Eq for BasicBlock {}

impl fmt::Debug for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BasicBlock")
            .field("id", &self.id)
            .field("func", &self.func)
            .field("pos_in_func", &self.pos_in_func)
            .field("instructions", &self.instructions())
            .field("injected_prefix", &self.injected_prefix)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    /// A block viewing all of `code`.
    fn block_of(id: u32, code: Vec<Instruction>) -> BasicBlock {
        let len = code.len() as u32;
        BasicBlock::new(BlockId::new(id), FuncId::new(0), id, code.into(), 0, len)
    }

    fn sample_block() -> BasicBlock {
        block_of(
            0,
            vec![
                Instruction::other(4),
                Instruction::other(3),
                Instruction::ret(),
            ],
        )
    }

    #[test]
    fn size_and_terminator() {
        let b = sample_block();
        assert_eq!(b.size_bytes(), 8);
        assert_eq!(b.terminator(), Some(InstKind::Return));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn fallthrough_block_has_no_terminator() {
        let b = block_of(1, vec![Instruction::other(4)]);
        assert_eq!(b.terminator(), None);
    }

    #[test]
    fn inject_prefix_tracks_original_instructions() {
        let mut b = sample_block();
        let original = b.instructions().to_vec();
        b.inject_prefix(&[
            Instruction::invalidate(LineAddr::new(5)),
            Instruction::invalidate(LineAddr::new(9)),
        ]);
        assert_eq!(b.injected_prefix_len(), 2);
        assert_eq!(b.original_instructions(), &original[..]);
        assert_eq!(b.injected_prefix_bytes(), 14);
        assert_eq!(b.size_bytes(), 8 + 14);
        // Terminator is unchanged.
        assert_eq!(b.terminator(), Some(InstKind::Return));
    }

    #[test]
    fn map_invalidate_operands_only_touches_prefix() {
        let mut b = sample_block();
        b.inject_prefix(&[Instruction::invalidate(LineAddr::new(5))]);
        b.map_invalidate_operands(|l| LineAddr::new(l.index() + 100));
        match b.instructions()[0].kind() {
            InstKind::Invalidate { line } => assert_eq!(line, LineAddr::new(105)),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(b.original_instructions(), sample_block().instructions());
    }

    #[test]
    fn a_view_into_shared_storage_equals_an_owned_copy() {
        let arena: Arc<[Instruction]> = vec![
            Instruction::other(2),
            Instruction::other(4),
            Instruction::other(3),
            Instruction::ret(),
            Instruction::other(7),
        ]
        .into();
        let view = BasicBlock::new(BlockId::new(0), FuncId::new(0), 0, arena, 1, 3);
        assert_eq!(view.instructions(), sample_block().instructions());
        assert_eq!(view, sample_block());
        assert_eq!(format!("{view:?}"), format!("{:?}", sample_block()));
    }

    #[test]
    fn injecting_into_a_clone_leaves_the_pristine_block_untouched() {
        let pristine = sample_block();
        let mut b = pristine.clone();
        b.inject_prefix(&[Instruction::invalidate(LineAddr::new(5))]);
        b.inject_prefix(&[Instruction::invalidate(LineAddr::new(6))]);
        assert_eq!(b.injected_prefix_len(), 2);
        assert_eq!(b.original_instructions(), pristine.instructions());
        assert_eq!(pristine, sample_block());
        assert_eq!(pristine.injected_prefix_len(), 0);
    }

    #[test]
    fn remapping_shared_storage_leaves_the_other_holder_untouched() {
        let mut a = sample_block();
        a.inject_prefix(&[Instruction::invalidate(LineAddr::new(5))]);
        let before = a.clone();
        let mut b = a.clone();
        b.map_invalidate_operands(|l| LineAddr::new(l.index() + 1));
        assert_eq!(a, before);
        assert_ne!(a, b);
        assert_eq!(
            b.instructions()[0].kind(),
            InstKind::Invalidate {
                line: LineAddr::new(6)
            }
        );
    }
}
