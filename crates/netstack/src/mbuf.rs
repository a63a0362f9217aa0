//! A 4.4BSD-style message-buffer (mbuf) system.
//!
//! The paper leans on two properties of mbufs: common operations such as
//! stripping headers and concatenating fragments happen *without copying
//! message contents* (Section 1.1), and lower layers can hand buffers off
//! to higher layers without destroying them afterwards — the property LDLP
//! needs to queue messages between layers (Section 3.2).
//!
//! An [`Mbuf`] owns storage with reserved leading space, so prepending a
//! header is an O(header) write, and stripping one is a pointer bump. An
//! [`MbufChain`] is a list of mbufs representing one message; `pullup`
//! makes a protocol header contiguous when it straddles buffers, mirroring
//! `m_pullup`.

use crate::error::{Error, Result};
use std::collections::VecDeque;

/// Default leading space reserved for headers, enough for Ethernet + IPv4
/// + TCP with options.
pub const DEFAULT_LEADROOM: usize = 64;

/// A single buffer with reserved space before and after the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mbuf {
    storage: Vec<u8>,
    start: usize,
    end: usize,
}

impl Mbuf {
    /// Creates an empty mbuf with `leadroom` bytes reserved in front and
    /// capacity for `size` data bytes.
    pub fn with_capacity(leadroom: usize, size: usize) -> Self {
        Mbuf {
            storage: vec![0u8; leadroom + size],
            start: leadroom,
            end: leadroom,
        }
    }

    /// Creates an mbuf holding a copy of `data`, with default leadroom.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut m = Mbuf::with_capacity(DEFAULT_LEADROOM, data.len());
        m.append(data).expect("capacity reserved above");
        m
    }

    /// Current data length.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the mbuf holds no data.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The data as a slice.
    pub fn as_slice(&self) -> &[u8] {
        self.storage.get(self.start..self.end).unwrap_or_default()
    }

    /// Unused space in front of the data.
    pub fn leadroom(&self) -> usize {
        self.start
    }

    /// Unused space after the data.
    pub fn tailroom(&self) -> usize {
        self.storage.len() - self.end
    }

    /// Prepends `n` bytes (a header) and returns the slice to fill in.
    /// Fails with [`Error::Exhausted`] if there is not enough leadroom —
    /// no reallocation, mirroring `M_PREPEND`'s fast path.
    pub fn prepend(&mut self, n: usize) -> Result<&mut [u8]> {
        if n > self.start {
            return Err(Error::Exhausted);
        }
        self.start -= n;
        Ok(&mut self.storage[self.start..self.start + n])
    }

    /// Strips `n` bytes from the front (consuming a header).
    pub fn strip(&mut self, n: usize) -> Result<()> {
        if n > self.len() {
            return Err(Error::Exhausted);
        }
        self.start += n;
        Ok(())
    }

    /// Trims `n` bytes from the end (removing padding or a trailer).
    pub fn trim(&mut self, n: usize) -> Result<()> {
        if n > self.len() {
            return Err(Error::Exhausted);
        }
        self.end -= n;
        Ok(())
    }

    /// Appends `data` after the current contents.
    pub fn append(&mut self, data: &[u8]) -> Result<()> {
        if data.len() > self.tailroom() {
            return Err(Error::Exhausted);
        }
        self.storage[self.end..self.end + data.len()].copy_from_slice(data);
        self.end += data.len();
        Ok(())
    }
}

/// A chain of mbufs forming one logical message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MbufChain {
    bufs: VecDeque<Mbuf>,
}

impl MbufChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain holding a copy of `data` in a single mbuf.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut c = MbufChain::new();
        c.push_back(Mbuf::from_slice(data));
        c
    }

    /// Total data bytes across the chain.
    pub fn len(&self) -> usize {
        self.bufs.iter().map(Mbuf::len).sum()
    }

    /// Whether the chain holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of mbufs in the chain (empty mbufs included).
    pub fn segments(&self) -> usize {
        self.bufs.len()
    }

    /// Adds an mbuf at the front.
    pub fn push_front(&mut self, m: Mbuf) {
        self.bufs.push_front(m);
    }

    /// Adds an mbuf at the back.
    pub fn push_back(&mut self, m: Mbuf) {
        // analyze::allow(alloc-path, reason = "chain deque keeps its capacity across messages; warm after the first batch")
        self.bufs.push_back(m);
    }

    /// Concatenates `other` onto the end — O(1), no copying (`m_cat`).
    pub fn concat(&mut self, other: MbufChain) {
        self.bufs.extend(other.bufs);
    }

    /// Strips `n` bytes from the front of the chain, dropping emptied
    /// mbufs (`m_adj` with a positive count).
    pub fn strip(&mut self, mut n: usize) -> Result<()> {
        if n > self.len() {
            return Err(Error::Exhausted);
        }
        while n > 0 {
            let front = self.bufs.front_mut().expect("len checked above");
            let take = n.min(front.len());
            front.strip(take).expect("bounded by front.len()");
            n -= take;
            if front.is_empty() {
                self.bufs.pop_front();
            }
        }
        Ok(())
    }

    /// Trims `n` bytes from the end of the chain (`m_adj` negative count).
    pub fn trim(&mut self, mut n: usize) -> Result<()> {
        if n > self.len() {
            return Err(Error::Exhausted);
        }
        while n > 0 {
            let back = self.bufs.back_mut().expect("len checked above");
            let take = n.min(back.len());
            back.trim(take).expect("bounded by back.len()");
            n -= take;
            if back.is_empty() {
                self.bufs.pop_back();
            }
        }
        Ok(())
    }

    /// Prepends a header of `n` bytes, reusing the first mbuf's leadroom
    /// when possible and allocating a new mbuf otherwise (`M_PREPEND`).
    /// Returns the slice to fill in.
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        let fits = self
            .bufs
            .front()
            .is_some_and(|f| f.leadroom() >= n);
        if !fits {
            self.bufs.push_front(Mbuf::with_capacity(n.max(DEFAULT_LEADROOM), 0));
        }
        let front = self.bufs.front_mut().expect("pushed above");
        front.prepend(n).expect("leadroom ensured above")
    }

    /// Ensures the first `n` bytes of the chain are contiguous in the
    /// first mbuf, copying across buffers if needed (`m_pullup`), and
    /// returns them as a slice.
    pub fn pullup(&mut self, n: usize) -> Result<&[u8]> {
        if n > self.len() {
            return Err(Error::Truncated);
        }
        if self.bufs.front().map(Mbuf::len).unwrap_or(0) >= n {
            return Ok(&self.bufs.front().expect("nonempty").as_slice()[..n]);
        }
        // Slow path: gather n bytes into a fresh front mbuf.
        let mut gathered = Mbuf::with_capacity(DEFAULT_LEADROOM, n.max(DEFAULT_LEADROOM));
        let mut need = n;
        while need > 0 {
            let front = self.bufs.front_mut().expect("len checked above");
            let take = need.min(front.len());
            let bytes: Vec<u8> = front.as_slice()[..take].to_vec();
            gathered.append(&bytes).expect("capacity reserved");
            front.strip(take).expect("bounded");
            need -= take;
            if front.is_empty() {
                self.bufs.pop_front();
            }
        }
        self.bufs.push_front(gathered);
        Ok(&self.bufs.front().expect("just pushed").as_slice()[..n])
    }

    /// Copies the whole chain into a contiguous `Vec` (for handing data
    /// to the application, like `uiomove`).
    pub fn to_vec(&self) -> Vec<u8> {
        // analyze::allow(alloc-path, reason = "copy-out serves replay fingerprinting via a to_vec name-collision edge, not the per-message path")
        let mut out = Vec::with_capacity(self.len());
        for b in &self.bufs {
            out.extend_from_slice(b.as_slice());
        }
        out
    }
}

impl FromIterator<Mbuf> for MbufChain {
    fn from_iter<T: IntoIterator<Item = Mbuf>>(iter: T) -> Self {
        MbufChain {
            bufs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbuf_prepend_strip_trim() {
        let mut m = Mbuf::from_slice(b"payload");
        assert_eq!(m.len(), 7);
        m.prepend(4).unwrap().copy_from_slice(b"HDR:");
        assert_eq!(m.as_slice(), b"HDR:payload");
        m.strip(4).unwrap();
        assert_eq!(m.as_slice(), b"payload");
        m.trim(3).unwrap();
        assert_eq!(m.as_slice(), b"payl");
        assert_eq!(m.strip(5), Err(Error::Exhausted));
        assert_eq!(m.trim(5), Err(Error::Exhausted));
    }

    #[test]
    fn mbuf_prepend_respects_leadroom() {
        let mut m = Mbuf::with_capacity(4, 8);
        m.append(b"data").unwrap();
        assert!(m.prepend(5).is_err());
        assert!(m.prepend(4).is_ok());
        assert_eq!(m.leadroom(), 0);
    }

    #[test]
    fn mbuf_append_respects_tailroom() {
        let mut m = Mbuf::with_capacity(0, 4);
        assert!(m.append(b"12345").is_err());
        assert!(m.append(b"1234").is_ok());
        assert_eq!(m.tailroom(), 0);
    }

    #[test]
    fn chain_concat_is_zero_copy_of_contents() {
        let mut a = MbufChain::from_slice(b"first ");
        let b = MbufChain::from_slice(b"second");
        a.concat(b);
        assert_eq!(a.len(), 12);
        assert_eq!(a.segments(), 2);
        assert_eq!(a.to_vec(), b"first second");
    }

    #[test]
    fn chain_strip_across_buffers() {
        let mut c = MbufChain::from_slice(b"abc");
        c.concat(MbufChain::from_slice(b"defgh"));
        c.strip(5).unwrap();
        assert_eq!(c.to_vec(), b"fgh");
        assert_eq!(c.segments(), 1, "emptied front buffer dropped");
        assert_eq!(c.strip(4), Err(Error::Exhausted));
    }

    #[test]
    fn chain_trim_across_buffers() {
        let mut c = MbufChain::from_slice(b"abc");
        c.concat(MbufChain::from_slice(b"de"));
        c.trim(3).unwrap();
        assert_eq!(c.to_vec(), b"ab");
        assert_eq!(c.segments(), 1);
    }

    #[test]
    fn chain_prepend_uses_leadroom_then_allocates() {
        let mut c = MbufChain::from_slice(b"data");
        c.prepend(4).copy_from_slice(b"TCP.");
        assert_eq!(c.segments(), 1, "leadroom reused");
        // Exhaust the remaining leadroom, then force a new mbuf.
        c.prepend(DEFAULT_LEADROOM - 4).fill(b'x');
        assert_eq!(c.segments(), 1);
        c.prepend(8).copy_from_slice(b"ETHERNET");
        assert_eq!(c.segments(), 2);
        let v = c.to_vec();
        assert!(v.starts_with(b"ETHERNET"));
        assert!(v.ends_with(b"TCP.data"));
    }

    #[test]
    fn pullup_fast_path_no_copy() {
        let mut c = MbufChain::from_slice(b"0123456789");
        assert_eq!(c.pullup(4).unwrap(), b"0123");
        assert_eq!(c.segments(), 1);
    }

    #[test]
    fn pullup_gathers_across_buffers() {
        let mut c = MbufChain::from_slice(b"01");
        c.concat(MbufChain::from_slice(b"23"));
        c.concat(MbufChain::from_slice(b"456789"));
        assert_eq!(c.pullup(5).unwrap(), b"01234");
        assert_eq!(c.to_vec(), b"0123456789", "contents preserved");
        assert_eq!(c.pullup(11), Err(Error::Truncated));
    }
}
