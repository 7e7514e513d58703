//! Error types for program construction and validation.

use std::error::Error;
use std::fmt;

use crate::ids::{BlockId, FuncId};

/// Errors produced while validating a [`Program`](crate::Program).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateProgramError {
    /// A function has no basic blocks.
    EmptyFunction(FuncId),
    /// A basic block has no instructions.
    EmptyBlock(BlockId),
    /// A branch targets a block outside its own function.
    CrossFunctionBranch {
        /// Block containing the offending branch.
        from: BlockId,
        /// The out-of-function target.
        to: BlockId,
    },
    /// A branch or call references an id that does not exist.
    DanglingTarget {
        /// Block containing the offending instruction.
        from: BlockId,
    },
    /// A block other than the last one in its function has no terminator
    /// and therefore falls through — allowed — but the *last* block of a
    /// function must end in a return or jump so execution cannot run off
    /// the end of the function.
    FallthroughOffFunctionEnd(BlockId),
    /// A terminator appears before the last instruction of a block.
    MidBlockTerminator(BlockId),
    /// The designated entry function does not exist.
    MissingEntry(FuncId),
    /// The program has more instructions than its arena's `u32` offsets
    /// can address.
    ArenaOverflow {
        /// Instructions in the builder's buffer.
        instructions: u64,
    },
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::EmptyFunction(func) => {
                write!(f, "function {func} has no basic blocks")
            }
            ValidateProgramError::EmptyBlock(block) => {
                write!(f, "basic block {block} has no instructions")
            }
            ValidateProgramError::CrossFunctionBranch { from, to } => {
                write!(f, "block {from} branches to {to} in another function")
            }
            ValidateProgramError::DanglingTarget { from } => {
                write!(f, "block {from} references a nonexistent target")
            }
            ValidateProgramError::FallthroughOffFunctionEnd(block) => {
                write!(f, "last block {block} of its function may fall through")
            }
            ValidateProgramError::MidBlockTerminator(block) => {
                write!(
                    f,
                    "block {block} has a terminator before its last instruction"
                )
            }
            ValidateProgramError::MissingEntry(func) => {
                write!(f, "entry function {func} does not exist")
            }
            ValidateProgramError::ArenaOverflow { instructions } => {
                write!(
                    f,
                    "program has {instructions} instructions; its arena's u32 offsets address at most {}",
                    u32::MAX
                )
            }
        }
    }
}

impl Error for ValidateProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs = [
            ValidateProgramError::EmptyFunction(FuncId::new(0)),
            ValidateProgramError::EmptyBlock(BlockId::new(1)),
            ValidateProgramError::CrossFunctionBranch {
                from: BlockId::new(1),
                to: BlockId::new(2),
            },
            ValidateProgramError::DanglingTarget {
                from: BlockId::new(3),
            },
            ValidateProgramError::FallthroughOffFunctionEnd(BlockId::new(4)),
            ValidateProgramError::MidBlockTerminator(BlockId::new(5)),
            ValidateProgramError::MissingEntry(FuncId::new(6)),
            ValidateProgramError::ArenaOverflow {
                instructions: 1 << 32,
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
