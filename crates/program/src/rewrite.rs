//! Link-time injection of invalidation instructions.
//!
//! Ripple's analysis runs against a *profiled* layout (v0). Injection adds
//! instructions, which shifts addresses, producing a *rewritten* layout
//! (v1). Victim cache lines discovered in v0 must therefore be translated
//! to v1; [`LineMapper`] performs that translation by following the first
//! code byte of each v0 line to its new home.

use std::collections::HashMap;

use ripple_json::{object, FromJson, JsonError, ToJson, Value};

use crate::addr::LineAddr;
use crate::ids::{BlockId, CodeLoc};
use crate::inst::Instruction;
use crate::layout::{Layout, LineRange};
use crate::program::Program;

/// One planned injection: when `cue` executes, invalidate the line holding
/// `victim` (a code location in the profiled layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Block that receives the invalidate instruction.
    pub cue: BlockId,
    /// First code byte of the victim line, in profiled-layout terms.
    pub victim: CodeLoc,
}

/// A set of injections to apply to a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    injections: Vec<Injection>,
}

impl InjectionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an injection, deduplicating identical (cue, victim) pairs.
    pub fn push(&mut self, injection: Injection) {
        if !self.injections.contains(&injection) {
            self.injections.push(injection);
        }
    }

    /// The planned injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Number of static invalidate instructions this plan will insert.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }
}

impl ToJson for Injection {
    fn to_json(&self) -> Value {
        object([
            ("cue", self.cue.get().to_json()),
            ("victim_block", self.victim.block.get().to_json()),
            ("victim_offset", self.victim.offset.to_json()),
        ])
    }
}

impl FromJson for Injection {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Injection {
            cue: BlockId::new(u32::from_json(v.get("cue")?)?),
            victim: CodeLoc::new(
                BlockId::new(u32::from_json(v.get("victim_block")?)?),
                u32::from_json(v.get("victim_offset")?)?,
            ),
        })
    }
}

impl ToJson for InjectionPlan {
    fn to_json(&self) -> Value {
        object([("injections", self.injections.to_json())])
    }
}

impl FromJson for InjectionPlan {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let injections: Vec<Injection> = FromJson::from_json(v.get("injections")?)?;
        Ok(injections.into_iter().collect())
    }
}

impl FromIterator<Injection> for InjectionPlan {
    fn from_iter<I: IntoIterator<Item = Injection>>(iter: I) -> Self {
        let mut plan = InjectionPlan::new();
        for inj in iter {
            plan.push(inj);
        }
        plan
    }
}

impl Extend<Injection> for InjectionPlan {
    fn extend<I: IntoIterator<Item = Injection>>(&mut self, iter: I) {
        for inj in iter {
            self.push(inj);
        }
    }
}

/// Translates profiled-layout (v0) cache lines to rewritten-layout (v1)
/// cache lines.
///
/// A v0 line is followed through its first *code* byte: the block and
/// original-instruction offset holding that byte are located in v0, then
/// resolved against v1. Lines containing no code (alignment padding, or
/// anything outside the v0 text segment) map to themselves.
///
/// The table is dense over v0's [`LineRange`]: one slot per line, with
/// padding lines holding an unmapped sentinel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineMapper {
    lines: LineRange,
    map: Vec<LineAddr>,
}

/// The mapper slot of a v0 line without code bytes.
const UNMAPPED: LineAddr = NOOP_LINE;

impl LineMapper {
    /// Builds a mapper between two layouts of the same program (same block
    /// ids; v1 may contain injected prefixes).
    pub fn new(program: &Program, old_layout: &Layout, new_layout: &Layout) -> Self {
        let origins = line_origins(program, old_layout);
        LineMapper {
            lines: origins.lines,
            map: origins
                .origins
                .iter()
                .map(|o| o.map_or(UNMAPPED, |loc| new_layout.line_of(loc)))
                .collect(),
        }
    }

    /// Maps a v0 line to its v1 equivalent (identity for unknown lines).
    #[inline]
    pub fn map(&self, line: LineAddr) -> LineAddr {
        match self.lines.slot(line).map(|i| self.map[i]) {
            Some(mapped) if mapped != UNMAPPED => mapped,
            _ => line,
        }
    }

    /// Number of mapped lines.
    pub fn len(&self) -> usize {
        self.map.iter().filter(|&&l| l != UNMAPPED).count()
    }

    /// Whether any lines are mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`CodeLoc`] of every text line's first code byte under one layout,
/// as built by [`line_origins`].
///
/// Dense over the layout's [`LineRange`]; padding lines and lines outside
/// the text segment have no origin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineOrigins {
    lines: LineRange,
    origins: Vec<Option<CodeLoc>>,
}

impl LineOrigins {
    /// The origin of `line`, or `None` when no code byte lies in it.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<CodeLoc> {
        self.lines.slot(line).and_then(|i| self.origins[i])
    }

    /// Every line with an origin, in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, CodeLoc)> + '_ {
        self.origins
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|loc| (self.lines.line(i), loc)))
    }
}

/// Maps every cache line of the text segment to the [`CodeLoc`] of its
/// first code byte under `layout`.
///
/// This is how analysis results (victim lines, found in a *profiled*
/// layout) are expressed in layout-independent terms so they survive the
/// relinking that injection causes. Lines spanning two blocks are owned by
/// the block holding their first code byte; when blocks share that byte's
/// line, the first block in program (id) order owns it.
pub fn line_origins(program: &Program, layout: &Layout) -> LineOrigins {
    let lines = layout.line_range();
    let mut origins = vec![None; lines.len()];
    for block in program.blocks() {
        let id = block.id();
        let start = layout.block_addr(id);
        for line in layout.lines_of_block(id) {
            let slot = &mut origins[lines.offset(line)];
            if slot.is_none() {
                let first_byte = line.base_addr().max(start);
                *slot = Some(CodeLoc::new(id, (first_byte.get() - start.get()) as u32));
            }
        }
    }
    LineOrigins { lines, origins }
}

/// Result of [`rewrite`]: the rewritten program, its new layout, and the
/// v0→v1 line mapper.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The program with invalidate instructions injected.
    pub program: Program,
    /// Layout of the rewritten program.
    pub layout: Layout,
    /// Maps profiled-layout lines to rewritten-layout lines.
    pub mapper: LineMapper,
}

/// Applies `plan` to `program`, relinks, and fixes up invalidate operands.
///
/// The operand of every injected instruction is the *rewritten-layout* line
/// of the victim, i.e. exactly what the simulated `invalidate` instruction
/// must evict at run time. `old_layout` must be a layout of `program`: the
/// new layout equals `Layout::new` of the rewritten program, but takes the
/// size of every block the plan leaves alone from `old_layout`.
///
/// # Examples
///
/// ```
/// use ripple_program::{
///     rewrite, CodeKind, CodeLoc, Injection, InjectionPlan, Instruction, Layout,
///     LayoutConfig, ProgramBuilder,
/// };
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb0 = b.add_block(main);
/// let bb1 = b.add_block(main);
/// b.push_inst(bb0, Instruction::other(60));
/// b.push_inst(bb1, Instruction::ret());
/// let program = b.finish(main)?;
/// let layout = Layout::new(&program, &LayoutConfig::default());
///
/// let mut plan = InjectionPlan::new();
/// plan.push(Injection { cue: bb1, victim: CodeLoc::new(bb0, 0) });
/// let rewritten = rewrite(&program, &layout, &plan);
/// assert_eq!(rewritten.program.injected_instruction_count(), 1);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
pub fn rewrite(program: &Program, old_layout: &Layout, plan: &InjectionPlan) -> Rewritten {
    // The clone shares the instruction arena: only the cue blocks below
    // get storage of their own.
    let mut new_program = program.clone();

    // Insert placeholder invalidates carrying the *old-layout* line; the
    // operands are remapped once the new layout is known.
    let per_block = victims_per_block(plan);
    for (cue, victims) in &per_block {
        let instrs: Vec<Instruction> = victims
            .iter()
            .map(|&loc| Instruction::invalidate(old_layout.line_of(loc)))
            .collect();
        new_program.blocks_mut()[cue.index()].inject_prefix(&instrs);
    }

    // Only the cue blocks changed size: every other block keeps the size
    // `old_layout` measured, so only the cues' instructions are summed.
    let new_layout = Layout::place(&new_program, old_layout.config(), |block| {
        let id = block.id();
        if block.len() == program.block(id).len() {
            (old_layout.block_size(id), old_layout.prefix_bytes(id))
        } else {
            (block.size_bytes(), block.injected_prefix_bytes())
        }
    });
    let mapper = LineMapper::new(program, old_layout, &new_layout);

    for cue in per_block.keys() {
        new_program.blocks_mut()[cue.index()]
            .map_invalidate_operands(|old_line| mapper.map(old_line));
    }

    Rewritten {
        program: new_program,
        layout: new_layout,
        mapper,
    }
}

/// Groups a plan's injections per cue block, preserving plan order.
fn victims_per_block(plan: &InjectionPlan) -> HashMap<BlockId, Vec<CodeLoc>> {
    let mut per_block: HashMap<BlockId, Vec<CodeLoc>> = HashMap::new();
    for inj in plan.injections() {
        per_block.entry(inj.cue).or_default().push(inj.victim);
    }
    per_block
}

/// A line operand that never matches a real cache line: invalidating it is
/// a no-op. Used to fill reserved-but-unassigned invalidate slots.
pub const NOOP_LINE: LineAddr = LineAddr::new(u64::MAX);

/// Replaces the invalidate operands of each listed block with the given
/// lines, padding unused slots with [`NOOP_LINE`].
///
/// The block sizes are unchanged (every invalidate instruction has the
/// same encoding size), so the program's layout is preserved — this is
/// how the final link-time analysis pass assigns victims against the
/// *final* layout without perturbing it.
///
/// # Panics
///
/// Panics if a block is assigned more lines than it has injected slots.
pub fn patch_invalidates(program: &mut Program, assignments: &HashMap<BlockId, Vec<LineAddr>>) {
    for block in program.blocks_mut() {
        let slots = block.injected_prefix_len() as usize;
        if slots == 0 {
            continue;
        }
        let lines = assignments.get(&block.id());
        let assigned = lines.map_or(0, Vec::len);
        assert!(
            assigned <= slots,
            "block {} has {} invalidate slots but {} assignments",
            block.id(),
            slots,
            assigned
        );
        let mut idx = 0;
        block.map_invalidate_operands(|_| {
            let line = match lines {
                Some(v) if idx < v.len() => v[idx],
                _ => NOOP_LINE,
            };
            idx += 1;
            line
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::CodeKind;
    use crate::inst::{InstKind, INVALIDATE_BYTES};
    use crate::layout::LayoutConfig;
    use crate::program::ProgramBuilder;

    fn linear_program(block_bytes: &[u8]) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let n = block_bytes.len();
        let blocks: Vec<BlockId> = (0..n).map(|_| b.add_block(main)).collect();
        for (i, (&blk, &sz)) in blocks.iter().zip(block_bytes).enumerate() {
            if i + 1 == n {
                if sz > 1 {
                    b.push_inst(blk, Instruction::other(sz - 1));
                }
                b.push_inst(blk, Instruction::ret());
            } else {
                b.push_inst(blk, Instruction::other(sz));
            }
        }
        b.finish(main).unwrap()
    }

    #[test]
    fn empty_plan_is_identity() {
        let p = linear_program(&[32, 32, 16]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let rw = rewrite(&p, &layout, &InjectionPlan::new());
        assert_eq!(rw.program, p);
        assert_eq!(rw.layout, layout);
        for i in 0..4u64 {
            assert_eq!(rw.mapper.map(LineAddr::new(i)), LineAddr::new(i));
        }
    }

    #[test]
    fn injection_grows_block_and_shifts_layout() {
        let p = linear_program(&[32, 32, 16]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(2), 0),
        });
        let rw = rewrite(&p, &layout, &plan);
        assert_eq!(
            rw.layout.block_size(BlockId::new(0)),
            32 + u32::from(INVALIDATE_BYTES)
        );
        assert_eq!(
            rw.layout.block_addr(BlockId::new(1)).get(),
            layout.block_addr(BlockId::new(1)).get() + u64::from(INVALIDATE_BYTES)
        );
    }

    #[test]
    fn invalidate_operand_is_new_layout_line() {
        let p = linear_program(&[60, 60, 60]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        // Victim: first byte of block 2 (old layout).
        let victim = CodeLoc::new(BlockId::new(2), 0);
        let old_line = layout.line_of(victim);
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim,
        });
        let rw = rewrite(&p, &layout, &plan);
        let new_line = rw.layout.line_of(victim);
        // Injection shifted block 2 by 7 bytes, may or may not move it to
        // another line, but operand must equal new layout's line.
        let inst = rw.program.block(BlockId::new(0)).instructions()[0];
        match inst.kind() {
            InstKind::Invalidate { line } => {
                assert_eq!(line, new_line);
                assert_eq!(rw.mapper.map(old_line), new_line);
            }
            other => panic!("expected invalidate, got {other:?}"),
        }
    }

    #[test]
    fn victims_of_one_cue_keep_plan_order() {
        // One line per block, so every victim's operand is distinct.
        let p = linear_program(&[64, 64, 64, 64]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let victims = [3, 1, 2].map(|b| CodeLoc::new(BlockId::new(b), 0));
        let plan: InjectionPlan = victims
            .iter()
            .map(|&victim| Injection {
                cue: BlockId::new(0),
                victim,
            })
            .collect();
        let rw = rewrite(&p, &layout, &plan);
        let cue = rw.program.block(BlockId::new(0));
        assert_eq!(cue.injected_prefix_len(), 3);
        for (inst, &victim) in cue.instructions().iter().zip(&victims) {
            match inst.kind() {
                InstKind::Invalidate { line } => {
                    assert_eq!(line, rw.mapper.map(layout.line_of(victim)));
                }
                other => panic!("expected invalidate, got {other:?}"),
            }
        }
    }

    #[test]
    fn plan_deduplicates() {
        let mut plan = InjectionPlan::new();
        let inj = Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        };
        plan.push(inj);
        plan.push(inj);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn plan_from_iterator() {
        let inj = Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        };
        let plan: InjectionPlan = vec![inj, inj].into_iter().collect();
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn rewritten_program_still_validates() {
        let p = linear_program(&[32, 32, 16]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(1),
            victim: CodeLoc::new(BlockId::new(0), 0),
        });
        plan.push(Injection {
            cue: BlockId::new(1),
            victim: CodeLoc::new(BlockId::new(2), 4),
        });
        let rw = rewrite(&p, &layout, &plan);
        rw.program.validate().expect("rewritten program is valid");
        assert_eq!(rw.program.injected_instruction_count(), 2);
        // Original instruction stream is preserved.
        for (old, new) in p.blocks().iter().zip(rw.program.blocks()) {
            assert_eq!(old.instructions(), new.original_instructions());
        }
    }

    #[test]
    fn mapper_follows_shifted_lines() {
        // Two 64-byte blocks, line-aligned. Injecting 7 bytes into block 0
        // shifts block 1 into the next line region.
        let p = linear_program(&[64, 64]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let b1_old_line = layout.block_addr(BlockId::new(1)).line();
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        });
        let rw = rewrite(&p, &layout, &plan);
        let b1_new_line = rw.layout.block_addr(BlockId::new(1)).line();
        assert_eq!(rw.mapper.map(b1_old_line), b1_new_line);
    }

    #[test]
    fn lines_without_code_have_no_origin_and_map_to_themselves() {
        // 128-byte function alignment: f0 fills part of the first line,
        // the second line is padding, and f1 takes the third and fourth.
        let p = multi_function_program(&[&[40], &[100]]);
        let config = LayoutConfig {
            function_align: 128,
            ..LayoutConfig::default()
        };
        let layout = Layout::new(&p, &config);
        let rw = rewrite(&p, &layout, &[inj(1, 0, 0)].into_iter().collect());
        let origins = line_origins(&p, &layout);
        let (first, last) = layout.line_bounds().unwrap();
        assert_eq!(layout.line_range().len(), 4);
        let padding = first.next();
        for line in [
            LineAddr::new(0),
            LineAddr::new(first.index() - 1),
            padding,
            last.next(),
        ] {
            assert_eq!(origins.get(line), None, "{line}");
            assert_eq!(rw.mapper.map(line), line, "{line}");
        }
        assert_eq!(origins.iter().count(), 3);
        assert_eq!(rw.mapper.len(), 3);
        assert_eq!(origins.get(first), Some(CodeLoc::new(BlockId::new(0), 0)));
    }

    #[test]
    fn line_shared_by_two_blocks_belongs_to_the_first() {
        // Blocks of 40 and 60 bytes: the first line holds bytes of both,
        // and block 0 (lower id, first code byte) owns it; the second line
        // starts 24 bytes into block 1.
        let p = linear_program(&[40, 60]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let origins = line_origins(&p, &layout);
        let (first, last) = layout.line_bounds().unwrap();
        assert_eq!(origins.get(first), Some(CodeLoc::new(BlockId::new(0), 0)));
        assert_eq!(origins.get(last), Some(CodeLoc::new(BlockId::new(1), 24)));
    }

    /// Multi-function program: `funcs[i]` lists block byte sizes of f_i.
    fn multi_function_program(funcs: &[&[u8]]) -> Program {
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for (fi, blocks) in funcs.iter().enumerate() {
            let f = b.add_function(format!("f{fi}"), CodeKind::Static);
            entry.get_or_insert(f);
            let n = blocks.len();
            for (bi, &sz) in blocks.iter().enumerate() {
                let blk = b.add_block(f);
                if bi + 1 == n {
                    if sz > 1 {
                        b.push_inst(blk, Instruction::other(sz - 1));
                    }
                    b.push_inst(blk, Instruction::ret());
                } else {
                    b.push_inst(blk, Instruction::other(sz));
                }
            }
        }
        b.finish(entry.unwrap()).unwrap()
    }

    fn inj(cue: u32, victim_block: u32, offset: u32) -> Injection {
        Injection {
            cue: BlockId::new(cue),
            victim: CodeLoc::new(BlockId::new(victim_block), offset),
        }
    }

    /// Relinks `program` under `plan` and checks the result against a
    /// from-scratch layout and mapper of the rewritten program, which
    /// `rewrite` must equal although it reuses `layout`'s block sizes.
    fn assert_relink_matches_fresh(
        program: &Program,
        layout: &Layout,
        plan: &InjectionPlan,
    ) -> Rewritten {
        let rw = rewrite(program, layout, plan);
        let fresh = Layout::new(&rw.program, layout.config());
        assert_eq!(rw.layout, fresh, "layouts diverge");
        assert_eq!(
            rw.mapper,
            LineMapper::new(program, layout, &fresh),
            "mappers diverge"
        );
        assert_eq!(rw.program.injected_instruction_count(), plan.len() as u64);
        for (old, new) in program.blocks().iter().zip(rw.program.blocks()) {
            assert_eq!(old.instructions(), new.original_instructions());
        }
        rw
    }

    #[test]
    fn relink_matches_fresh_layout_from_empty_plan() {
        // f0: blocks 0-1, f1: blocks 2-3, f2: block 4. Injecting into
        // block 2 grows f1; f2 shifts if f1 outgrows its slack.
        let p = multi_function_program(&[&[40, 24], &[60, 60], &[64]]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let plan: InjectionPlan = [inj(2, 0, 0), inj(2, 4, 8), inj(0, 3, 0)]
            .into_iter()
            .collect();
        assert_relink_matches_fresh(&p, &layout, &plan);
    }

    #[test]
    fn relink_between_plans_matches_fresh_layout() {
        // The fixpoint's second round relinks the pristine program under
        // its new plan; nothing of the first round's binary carries over.
        let p = multi_function_program(&[&[40, 24], &[60, 60], &[64], &[30, 30]]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let prev: InjectionPlan = [inj(2, 0, 0), inj(0, 4, 0)].into_iter().collect();
        // Adds a cue, drops a cue, reorders one block's victims.
        let next: InjectionPlan = [inj(2, 4, 8), inj(2, 0, 0), inj(5, 1, 0)]
            .into_iter()
            .collect();
        assert_relink_matches_fresh(&p, &layout, &prev);
        let rw = assert_relink_matches_fresh(&p, &layout, &next);
        assert_eq!(rw.program.block(BlockId::new(0)).injected_prefix_len(), 0);
        assert_eq!(rw.program.block(BlockId::new(2)).injected_prefix_len(), 2);
    }

    #[test]
    fn relink_matches_fresh_layout_when_plan_empties() {
        let p = multi_function_program(&[&[64, 64], &[32]]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let prev: InjectionPlan = [inj(0, 2, 0), inj(1, 0, 0)].into_iter().collect();
        assert_relink_matches_fresh(&p, &layout, &prev);
        let rw = assert_relink_matches_fresh(&p, &layout, &InjectionPlan::new());
        assert_eq!(rw.program, p);
        assert_eq!(rw.layout, layout);
    }

    #[test]
    fn relinking_the_same_plan_twice_gives_the_same_binary() {
        let p = multi_function_program(&[&[40, 24], &[60, 60]]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let plan: InjectionPlan = [inj(0, 2, 0), inj(3, 1, 0)].into_iter().collect();
        let first = assert_relink_matches_fresh(&p, &layout, &plan);
        let second = assert_relink_matches_fresh(&p, &layout, &plan.clone());
        assert_eq!(first.program, second.program);
        assert_eq!(first.layout, second.layout);
        assert_eq!(first.mapper, second.mapper);
    }

    #[test]
    fn relink_matches_fresh_layout_on_sub_line_alignment() {
        // function_align = 16 lets functions share cache lines, so a grown
        // cue shifts the next function within a line it shares.
        let p = multi_function_program(&[&[10], &[10], &[10]]);
        let config = LayoutConfig {
            function_align: 16,
            ..LayoutConfig::default()
        };
        let layout = Layout::new(&p, &config);
        let prev_plan: InjectionPlan = [inj(0, 1, 0)].into_iter().collect();
        let plan: InjectionPlan = [inj(0, 1, 0), inj(2, 0, 0)].into_iter().collect();
        assert_relink_matches_fresh(&p, &layout, &prev_plan);
        assert_relink_matches_fresh(&p, &layout, &plan);
    }
}
