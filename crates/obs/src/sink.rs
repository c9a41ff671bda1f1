//! Pluggable destinations for finished [`QueryProfile`]s.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::lock;
use crate::profile::QueryProfile;

/// Receiver for finished per-query profiles.
///
/// Contract: `record` is called once per completed execute call (after the
/// result has been produced), possibly from many threads at once, and must
/// not block for long — it sits on the query hot path. Implementations must
/// tolerate profiles from cached plans (prepare spans absent) and from
/// unprofiled runs (`operators` empty). Dropping profiles is allowed (the
/// default ring buffer drops the oldest); panicking is not.
pub trait ObsSink: Send + Sync + std::fmt::Debug {
    fn record(&self, profile: QueryProfile);
}

/// Default sink: a bounded in-memory ring buffer of the most recent profiles.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<QueryProfile>>,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// The retained profiles, oldest first.
    pub fn recent(&self) -> Vec<QueryProfile> {
        lock(&self.buf).iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        lock(&self.buf).clear();
    }
}

impl Default for RingSink {
    fn default() -> Self {
        Self::new(128)
    }
}

impl ObsSink for RingSink {
    fn record(&self, profile: QueryProfile) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(profile);
    }
}

/// A sink that discards every profile.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn record(&self, _profile: QueryProfile) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest() {
        let sink = RingSink::new(2);
        for i in 0..3u64 {
            sink.record(QueryProfile {
                total_nanos: i,
                ..Default::default()
            });
        }
        let recent = sink.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].total_nanos, 1);
        assert_eq!(recent[1].total_nanos, 2);
    }
}
