//! Socket buffers.
//!
//! The socket layer of the traced stack does two jobs on the receive path:
//! `sbappend` adds mbufs to the receive buffer at interrupt level, and
//! `sowakeup`/`soreceive` wake the sleeping process and copy the data out
//! (Table 2's "device interrupt" and "exit" phases). [`SockBuf`] models
//! the buffer with byte-counted backpressure.

use crate::error::{Error, Result};
use std::collections::VecDeque;

/// A byte-stream socket buffer with a capacity bound.
#[derive(Debug, Clone)]
pub struct SockBuf {
    data: VecDeque<u8>,
    capacity: usize,
}

impl SockBuf {
    /// An empty buffer holding at most `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        SockBuf {
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Remaining space.
    pub fn free(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `bytes` (`sbappend`); fails without side effects if they
    /// don't fit.
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.len() > self.free() {
            return Err(Error::Exhausted);
        }
        self.data.extend(bytes);
        Ok(())
    }

    /// Copies up to `dst.len()` bytes out (`soreceive` + `uiomove`),
    /// returning how many were moved.
    pub fn read(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.data.len());
        for b in dst.iter_mut().take(n) {
            *b = self.data.pop_front().expect("n bounded by len");
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let mut b = SockBuf::new(16);
        b.append(b"hello").unwrap();
        b.append(b" world").unwrap();
        assert_eq!(b.len(), 11);
        let mut out = [0u8; 5];
        assert_eq!(b.read(&mut out), 5);
        assert_eq!(&out, b"hello");
        let mut rest = [0u8; 8];
        assert_eq!(b.read(&mut rest), 6);
        assert_eq!(&rest[..6], b" world");
        assert!(b.is_empty());
    }

    #[test]
    fn capacity_enforced_atomically() {
        let mut b = SockBuf::new(8);
        b.append(b"12345678").unwrap();
        assert_eq!(b.append(b"x"), Err(Error::Exhausted));
        assert_eq!(b.len(), 8, "failed append leaves buffer unchanged");
        assert_eq!(b.free(), 0);
    }

    #[test]
    fn read_more_than_available() {
        let mut b = SockBuf::new(8);
        b.append(b"abc").unwrap();
        let mut out = [0u8; 8];
        assert_eq!(b.read(&mut out), 3);
        assert_eq!(&out[..3], b"abc");
    }
}
