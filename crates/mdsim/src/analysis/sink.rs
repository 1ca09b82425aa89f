//! Output sink shared by the analysis kernels.
//!
//! An analysis "output step" serializes the kernel's current results and
//! hands the bytes to a sink, which counts them and writes nowhere: the
//! serialization is the cost (the `ot` component the scheduler reasons
//! about), and the count shows that it was paid.

/// Destination for analysis output: a byte counter.
#[derive(Debug, Default)]
pub struct OutputSink {
    /// Total bytes emitted across all output steps.
    pub bytes_written: u64,
    /// Number of output steps performed.
    pub writes: usize,
}

impl OutputSink {
    /// A sink that counts bytes but writes nowhere.
    pub fn null() -> Self {
        OutputSink::default()
    }

    /// Emits one output record.
    pub fn emit(&mut self, bytes: &[u8]) {
        self.bytes_written += bytes.len() as u64;
        self.writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts() {
        let mut s = OutputSink::null();
        s.emit(b"hello");
        s.emit(b"world!");
        assert_eq!(s.bytes_written, 11);
        assert_eq!(s.writes, 2);
    }
}
