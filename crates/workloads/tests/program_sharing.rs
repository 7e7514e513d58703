//! A program's instructions live in one arena that every copy shares, so
//! copying and relinking a paper-size program cost allocations in the
//! size of the injection plan, never in the number of blocks, and no
//! rewrite ever shows through to the program it started from.
//!
//! This binary installs a counting global allocator (one per binary, so
//! these tests have a binary of their own). Counts are per thread, so the
//! harness running tests concurrently does not disturb them.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::collections::HashMap;

use ripple_program::{
    patch_invalidates, rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig,
    LineAddr, Program,
};
use ripple_workloads::{generate, App};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialized thread locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the (allocations, frees) this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    (out, a1 - a0, f1 - f0)
}

/// `k` injections on `k` distinct rewritable cue blocks, each evicting
/// the first line of the block `stride` ids after its cue.
fn plan_of(program: &Program, k: usize, stride: usize) -> InjectionPlan {
    let n = program.num_blocks();
    program
        .blocks()
        .iter()
        .filter(|b| program.function(b.func()).kind().is_rewritable())
        .step_by(n / (k * 2))
        .take(k)
        .map(|b| Injection {
            cue: b.id(),
            victim: CodeLoc::new(BlockId::new(((b.id().index() + stride) % n) as u32), 0),
        })
        .collect()
}

#[test]
fn copying_and_relinking_a_paper_size_app_allocates_per_plan_not_per_block() {
    let app = generate(&App::Kafka.spec());
    let program = &app.program;
    assert!(program.num_blocks() >= 20_000, "{}", program.num_blocks());
    let layout = Layout::new(program, &LayoutConfig::default());

    let (copy, allocs, _) = counted(|| program.clone());
    assert!(allocs <= 2, "Program::clone made {allocs} allocations");
    let ((), _, frees) = counted(|| drop(copy));
    assert!(frees <= 2, "dropping a program copy made {frees} frees");

    let k = 64;
    let plan = plan_of(program, k, 7);
    assert_eq!(plan.len(), k);
    let touched = plan
        .injections()
        .iter()
        .map(|inj| program.block(inj.cue).func())
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let (rewritten, allocs, _) = counted(|| rewrite(program, &layout, &plan));
    let bound = 4 * k as u64 + touched + 32;
    assert!(
        allocs <= bound,
        "rewrite of a {k}-injection plan made {allocs} allocations (bound {bound})"
    );
    assert_eq!(rewritten.program.injected_instruction_count(), k as u64);
    let ((), _, frees) = counted(|| drop(rewritten));
    assert!(
        frees <= bound,
        "dropping a relinked program made {frees} frees (bound {bound})"
    );
}

#[test]
fn relinking_never_writes_through_to_the_original_program() {
    let app = generate(&App::FinagleChirper.spec());
    let program = &app.program;
    let layout = Layout::new(program, &LayoutConfig::default());

    let plan = plan_of(program, 48, 5);
    let first = rewrite(program, &layout, &plan);
    // The next round keeps half the cues, moves the others' victims and
    // adds fresh cues; the first round's relink stays alive alongside it
    // and shares the original's untouched storage.
    let mut next: InjectionPlan = plan.injections()[..24].iter().copied().collect();
    next.extend(plan.injections()[24..].iter().map(|inj| Injection {
        cue: inj.cue,
        victim: CodeLoc::new(inj.victim.block, 1),
    }));
    next.extend(plan_of(program, 16, 11).injections().iter().copied());
    let second = rewrite(program, &layout, &next);
    // Patching a clone of the second relink, which shares all its
    // storage, leaves the relink itself untouched.
    let mut patched = second.program.clone();
    let assignments: HashMap<BlockId, Vec<LineAddr>> = next
        .injections()
        .iter()
        .map(|inj| (inj.cue, vec![LineAddr::new(inj.cue.index() as u64)]))
        .collect();
    patch_invalidates(&mut patched, &assignments);

    let fresh = generate(&App::FinagleChirper.spec()).program;
    assert_eq!(program.num_blocks(), fresh.num_blocks());
    for (orig, gen) in program.blocks().iter().zip(fresh.blocks()) {
        assert_eq!(orig, gen, "block {} changed under relinking", orig.id());
    }
    assert_eq!(program, &fresh);
    // Neither relink is touched by the other or by the patch.
    assert_eq!(first.program, rewrite(program, &layout, &plan).program);
    assert_eq!(second.program, rewrite(program, &layout, &next).program);
    assert_ne!(first.program, second.program);
    assert_ne!(second.program, patched);
}
