//! Streaming observation of L1I evictions.
//!
//! Ripple's offline analysis consumes the simulator's eviction log. Instead
//! of materializing an `Option<Vec<EvictionEvent>>` inside the engine (and
//! making "log requested but absent" a representable state), the engine
//! pushes every eviction into an [`EvictionSink`] as it happens. Consumers
//! that can process events online (window construction) never buffer the
//! log; consumers that do need it materialized use [`VecSink`].

use ripple_program::LineAddr;

use crate::stats::EvictionEvent;

/// Observer of L1I evictions (and, optionally, demand misses), called
/// synchronously from the simulation.
///
/// Events arrive in trace order (`evict_pos` is non-decreasing) and include
/// evictions during cache warmup — the analysis wants those even though the
/// stat counters exclude them.
pub trait EvictionSink {
    /// Called once per valid-line eviction.
    fn record(&mut self, event: EvictionEvent);

    /// Called once per L1I demand miss on `line` at trace position `pos`,
    /// warmup included; hits are never reported. The default ignores it.
    fn demand_miss(&mut self, _line: LineAddr, _pos: u64) {}
}

/// Discards every event; the default for runs that only need [`SimStats`]
/// (../stats.rs).
///
/// [`SimStats`]: crate::SimStats
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EvictionSink for NullSink {
    fn record(&mut self, _event: EvictionEvent) {}
}

/// Collects the full eviction log in memory, for tests and consumers that
/// genuinely need random access to the whole log.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    events: Vec<EvictionEvent>,
}

impl VecSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[EvictionEvent] {
        &self.events
    }

    /// Consumes the sink, returning the collected log.
    pub fn into_events(self) -> Vec<EvictionEvent> {
        self.events
    }
}

impl EvictionSink for VecSink {
    fn record(&mut self, event: EvictionEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(pos: u64) -> EvictionEvent {
        EvictionEvent {
            victim: LineAddr::new(7),
            evict_pos: pos,
            last_access_pos: pos.saturating_sub(1),
            by_prefetch: false,
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        sink.record(event(1));
        sink.record(event(2));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.into_events()[1], event(2));
    }

    #[test]
    fn null_sink_ignores() {
        NullSink.record(event(9));
    }
}
