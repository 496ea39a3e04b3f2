//! Bus transactions.

use std::fmt;

use csb_isa::Addr;
use serde::Serialize;

/// Direction/origin of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TxnKind {
    /// Uncached write (single-beat or burst) from the uncached buffer or CSB.
    Write,
    /// Uncached read.
    Read,
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnKind::Write => f.write_str("write"),
            TxnKind::Read => f.write_str("read"),
        }
    }
}

/// A single bus transaction: a naturally aligned, power-of-two-sized
/// transfer.
///
/// `payload` tracks how many of the transferred bytes are program data (as
/// opposed to zero padding in a full-line CSB burst); effective-bandwidth
/// statistics count only payload bytes, which is how the paper penalizes the
/// CSB for transfers much smaller than a cache line.
///
/// # Examples
///
/// ```
/// use csb_bus::Transaction;
/// use csb_isa::Addr;
///
/// // A CSB line flush carrying only 16 bytes of program data.
/// let txn = Transaction::write(Addr::new(0x2000_0000), 64)
///     .payload(16)
///     .tag(7);
/// assert_eq!(txn.size, 64);
/// assert_eq!(txn.payload, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Transaction {
    /// Start address (must be aligned to `size`).
    pub addr: Addr,
    /// Transfer size in bytes (power of two, at most one cache line).
    pub size: usize,
    /// Read or write.
    pub kind: TxnKind,
    /// Program bytes carried (≤ `size`; the rest is padding).
    pub payload: usize,
    /// Caller-chosen identifier, reported back on completion.
    pub tag: u64,
}

impl Transaction {
    /// Creates a write transaction with payload equal to its size.
    pub fn write(addr: Addr, size: usize) -> Self {
        Transaction {
            addr,
            size,
            kind: TxnKind::Write,
            payload: size,
            tag: 0,
        }
    }

    /// Creates a read transaction.
    pub fn read(addr: Addr, size: usize) -> Self {
        Transaction {
            addr,
            size,
            kind: TxnKind::Read,
            payload: size,
            tag: 0,
        }
    }

    /// Sets the payload byte count (for padded bursts).
    pub fn payload(mut self, bytes: usize) -> Self {
        self.payload = bytes;
        self
    }

    /// Sets the completion tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}B @ {} (payload {}B)",
            self.kind, self.size, self.addr, self.payload
        )
    }
}

/// A transaction rejected by the bus as architecturally illegal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Size is zero, not a power of two, or exceeds the maximum burst.
    BadSize {
        /// Offending size.
        size: usize,
        /// The bus's maximum burst.
        max_burst: usize,
    },
    /// The address is not naturally aligned to the transfer size.
    Misaligned {
        /// Offending address.
        addr: Addr,
        /// Transfer size.
        size: usize,
    },
    /// Payload exceeds the transfer size.
    BadPayload {
        /// Offending payload.
        payload: usize,
        /// Transfer size.
        size: usize,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::BadSize { size, max_burst } => write!(
                f,
                "transfer size {size} is not a power of two in 1..={max_burst}"
            ),
            TxnError::Misaligned { addr, size } => {
                write!(f, "address {addr} is not naturally aligned to {size} bytes")
            }
            TxnError::BadPayload { payload, size } => {
                write!(f, "payload {payload} exceeds transfer size {size}")
            }
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let t = Transaction::write(Addr::new(0x40), 64).payload(8).tag(3);
        assert_eq!(t.kind, TxnKind::Write);
        assert_eq!(t.payload, 8);
        assert_eq!(t.tag, 3);
        let r = Transaction::read(Addr::new(0x8), 8);
        assert_eq!(r.kind, TxnKind::Read);
        assert_eq!(r.payload, 8);
    }

    #[test]
    fn displays() {
        let t = Transaction::write(Addr::new(0x40), 64).payload(8);
        assert_eq!(t.to_string(), "write 64B @ 0x40 (payload 8B)");
        assert!(TxnError::BadSize {
            size: 3,
            max_burst: 64
        }
        .to_string()
        .contains('3'));
        assert!(!TxnKind::Read.to_string().is_empty());
    }
}
