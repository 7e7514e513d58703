//! Program model, linker and rewriter for the Ripple reproduction.
//!
//! This crate provides the "binary" substrate everything else builds on:
//!
//! * a [`Program`] — functions, basic blocks and sized instructions with a
//!   validated control-flow structure;
//! * a [`Layout`] — the linker that assigns byte addresses and therefore
//!   determines which 64-byte I-cache lines every block occupies;
//! * [`rewrite`] — link-time injection of Ripple's `invalidate`
//!   instructions, including relinking and translating victim cache lines
//!   between the profiled and rewritten layouts via [`LineMapper`].
//!
//! # Examples
//!
//! Build a two-block program, lay it out, and inspect its cache lines:
//!
//! ```
//! use ripple_program::{CodeKind, Instruction, Layout, LayoutConfig, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.add_function("main", CodeKind::Static);
//! let head = b.add_block(main);
//! let tail = b.add_block(main);
//! b.push_inst(head, Instruction::other(60));
//! b.push_inst(head, Instruction::cond_branch(tail));
//! b.push_inst(tail, Instruction::ret());
//! let program = b.finish(main)?;
//!
//! let layout = Layout::new(&program, &LayoutConfig::default());
//! assert_eq!(layout.lines_of_block(head).count(), 1);
//! assert!(layout.block_addr(tail) > layout.block_addr(head));
//! # Ok::<(), ripple_program::ValidateProgramError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod addr;
mod block;
mod error;
mod function;
mod ids;
mod inst;
mod layout;
mod program;
mod rewrite;

pub use addr::{lines_spanning, Addr, LineAddr, LineSpan, CACHE_LINE_BYTES, CACHE_LINE_SHIFT};
pub use block::BasicBlock;
pub use error::ValidateProgramError;
pub use function::{CodeKind, Function};
pub use ids::{BlockId, CodeLoc, FuncId};
pub use inst::{InstKind, Instruction, INVALIDATE_BYTES};
pub use layout::{Layout, LayoutConfig, LineRange};
pub use program::{Program, ProgramBuilder, Successors};
pub use rewrite::{
    line_origins, patch_invalidates, rewrite, Injection, InjectionPlan, LineMapper, LineOrigins,
    Rewritten, NOOP_LINE,
};
