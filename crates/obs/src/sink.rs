//! Where finished [`QueryProfile`]s go: a bounded ring of the most recent.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::lock;
use crate::profile::QueryProfile;

/// A bounded in-memory ring buffer of the most recent profiles.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<QueryProfile>>,
}

impl RingSink {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Keep `profile`, dropping the oldest one when the ring is full. Called
    /// once per completed execute call, possibly from many threads at once:
    /// it holds the ring's lock only to push.
    pub fn record(&self, profile: QueryProfile) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(profile);
    }

    /// The retained profiles, oldest first.
    pub fn recent(&self) -> Vec<QueryProfile> {
        lock(&self.buf).iter().cloned().collect()
    }
}

impl Default for RingSink {
    fn default() -> Self {
        Self::new(128)
    }
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
