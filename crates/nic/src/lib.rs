//! A network-interface (NI) device model for the CSB reproduction.
//!
//! The paper's motivation and qualitative evaluation (§2, §5) are about
//! exactly this device class: NIs whose transmit path is a memory-mapped
//! window written with programmed I/O — the Atoll adapter's single-store
//! DMA doorbell and HP Medusa's on-board descriptor FIFOs are its examples.
//! What those designs exploit is that *individual bus transactions are
//! atomic*; the CSB extends that atomicity to a whole cache line.
//!
//! This crate models the receiving side of such a device:
//!
//! * the TX window is an array of cache-line-sized **slots**;
//! * a message is a [`Header`] doubleword (magic, sender, sequence number,
//!   payload length) followed by its payload bytes, all within one slot;
//! * the NI watches the bus writes landing in its window
//!   ([`Nic::ingest_bytes`]), assembles messages from whatever transaction
//!   granularity the sender's store path produced (one CSB line burst, or
//!   a dribble of single beats), timestamps them, and models wire
//!   transmission ([`WireModel`]);
//! * a header arriving while the slot's previous message is still
//!   incomplete marks a **torn frame** — the failure the CSB's atomic
//!   commit rules out by construction, and the reason lock-free NI access
//!   is unsafe with plain store buffers.
//!
//! The model is a pure consumer of bus write events, so it composes with
//! the simulator (`csb-core` ingests each delivered write in its window)
//! and is unit-testable in isolation.
//!
//! # Examples
//!
//! ```
//! use csb_nic::{encode_header, Nic, NicConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nic = Nic::new(NicConfig::default())?;
//!
//! // One CSB line burst carrying a 16-byte message in slot 0.
//! let mut line = vec![0u8; 64];
//! line[..8].copy_from_slice(&encode_header(16, 1, 7).to_le_bytes());
//! line[8..24].copy_from_slice(&[0xab; 16]);
//! nic.ingest_bytes(0, &line, 100);
//!
//! let m = &nic.messages()[0];
//! assert_eq!(m.sender, 7);
//! assert_eq!(m.payload, vec![0xab; 16]);
//! assert!(m.arrived_at > 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::Serialize;

/// Magic tag in the top 16 bits of a valid header doubleword.
pub const HEADER_MAGIC: u16 = 0xCAFE;

/// Maximum payload carried by one slot-sized message.
pub const fn max_payload(slot_size: usize) -> usize {
    slot_size - 8
}

/// Parsed message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Header {
    /// Payload length in bytes.
    pub len: u16,
    /// Sender-assigned sequence number.
    pub seq: u16,
    /// Sender identifier.
    pub sender: u16,
}

/// Packs a header doubleword: `[magic | sender | seq | len]` from the top.
pub fn encode_header(len: u16, seq: u16, sender: u16) -> u64 {
    (u64::from(HEADER_MAGIC) << 48)
        | (u64::from(sender) << 32)
        | (u64::from(seq) << 16)
        | u64::from(len)
}

/// Parses a header doubleword; `None` if the magic tag is absent.
pub fn decode_header(dword: u64) -> Option<Header> {
    if (dword >> 48) as u16 != HEADER_MAGIC {
        return None;
    }
    Some(Header {
        len: dword as u16,
        seq: (dword >> 16) as u16,
        sender: (dword >> 32) as u16,
    })
}

/// Wire-transmission timing, in bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WireModel {
    /// Fixed propagation + switching latency.
    pub latency: u64,
    /// Serialization: cycles per 8 payload bytes.
    pub cycles_per_dword: u64,
}

impl Default for WireModel {
    fn default() -> Self {
        WireModel {
            latency: 20,
            cycles_per_dword: 1,
        }
    }
}

impl WireModel {
    /// Arrival time of a message completed at `done` carrying `len` payload
    /// bytes.
    pub fn arrival(&self, done: u64, len: usize) -> u64 {
        done + self.latency + self.cycles_per_dword * (len as u64).div_ceil(8)
    }
}

/// NI configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NicConfig {
    /// Slot size in bytes (one cache line).
    pub slot_size: usize,
    /// Number of slots in the TX window.
    pub slots: usize,
    /// NI processing overhead between the completing bus write and wire
    /// launch, in bus cycles.
    pub process_cycles: u64,
    /// Wire model.
    pub wire: WireModel,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            slot_size: 64,
            slots: 64,
            process_cycles: 4,
            wire: WireModel::default(),
        }
    }
}

/// Invalid [`NicConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfigError {
    /// The rejected slot size.
    pub slot_size: usize,
    /// The rejected slot count.
    pub slots: usize,
}

impl fmt::Display for NicConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NIC window invalid: slot size {} must be a power of two >= 16, slots {} nonzero",
            self.slot_size, self.slots
        )
    }
}

impl std::error::Error for NicConfigError {}

/// A fully assembled, wire-delivered message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReceivedMessage {
    /// Sender id from the header.
    pub sender: u16,
    /// Sequence number from the header.
    pub seq: u16,
    /// Payload bytes (exactly `header.len` of them).
    pub payload: Vec<u8>,
    /// Slot index the message used.
    pub slot: usize,
    /// Bus cycle of the first write of this message.
    pub first_bus_cycle: u64,
    /// Bus cycle of the write that completed it.
    pub completed_bus_cycle: u64,
    /// Wire-model arrival time at the peer.
    pub arrived_at: u64,
}

impl ReceivedMessage {
    /// Bus cycles from first write to wire arrival — the device-side
    /// component of end-to-end latency.
    pub fn device_latency(&self) -> u64 {
        self.arrived_at - self.first_bus_cycle
    }
}

/// NI counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NicStats {
    /// Messages assembled and launched.
    pub messages: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Frames torn by a new header overwriting an incomplete message.
    pub torn_frames: u64,
    /// Writes carrying data into a slot with no message in progress.
    pub stray_writes: u64,
    /// Header doublewords that failed magic validation.
    pub invalid_headers: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    header: Header,
    buf: Vec<u8>,
    /// Coverage bitmap over the slot's payload bytes.
    got: Vec<bool>,
    first_bus_cycle: u64,
}

impl Pending {
    fn complete(&self) -> bool {
        self.got[..self.header.len as usize].iter().all(|&b| b)
    }
}

/// The NI device: feed it window writes, read back delivered messages.
///
/// See the crate-level docs and example.
#[derive(Debug, Clone)]
pub struct Nic {
    cfg: NicConfig,
    pending: Vec<Option<Pending>>,
    messages: Vec<ReceivedMessage>,
    stats: NicStats,
}

impl Nic {
    /// Creates an idle NI.
    ///
    /// # Errors
    ///
    /// Returns [`NicConfigError`] unless the slot size is a power of two of
    /// at least 16 bytes and there is at least one slot.
    pub fn new(cfg: NicConfig) -> Result<Self, NicConfigError> {
        if cfg.slot_size < 16 || !cfg.slot_size.is_power_of_two() || cfg.slots == 0 {
            return Err(NicConfigError {
                slot_size: cfg.slot_size,
                slots: cfg.slots,
            });
        }
        Ok(Nic {
            cfg,
            pending: vec![None; cfg.slots],
            messages: Vec::new(),
            stats: NicStats::default(),
        })
    }

    /// The NI configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Messages delivered so far, in completion order.
    pub fn messages(&self) -> &[ReceivedMessage] {
        &self.messages
    }

    /// Consumes one bus write of `data` at window offset `offset` (not a
    /// bus address), whose address phase was bus cycle `bus_cycle`.
    /// Writes crossing a slot boundary are split internally; bytes past
    /// the window are ignored.
    pub fn ingest_bytes(&mut self, offset: u64, data: &[u8], bus_cycle: u64) {
        let slot_size = self.cfg.slot_size as u64;
        let mut offset = offset;
        let mut data = data;
        while !data.is_empty() {
            let slot = (offset / slot_size) as usize;
            if slot >= self.cfg.slots {
                return; // past the window
            }
            let within = (offset % slot_size) as usize;
            let take = data.len().min(self.cfg.slot_size - within);
            self.ingest_in_slot(slot, within, &data[..take], bus_cycle);
            offset += take as u64;
            data = &data[take..];
        }
    }

    fn ingest_in_slot(&mut self, slot: usize, within: usize, data: &[u8], bus_cycle: u64) {
        // A write covering the slot's first doubleword may open a message.
        if within == 0 && data.len() >= 8 {
            let dword = u64::from_le_bytes(data[..8].try_into().expect("8 bytes checked"));
            match decode_header(dword) {
                Some(header) if (header.len as usize) <= max_payload(self.cfg.slot_size) => {
                    if self.pending[slot].as_ref().is_some_and(|p| !p.complete()) {
                        self.stats.torn_frames += 1;
                    }
                    self.pending[slot] = Some(Pending {
                        header,
                        buf: vec![0u8; max_payload(self.cfg.slot_size)],
                        got: vec![false; max_payload(self.cfg.slot_size)],
                        first_bus_cycle: bus_cycle,
                    });
                }
                _ => {
                    self.stats.invalid_headers += 1;
                    return;
                }
            }
        }
        let Some(p) = &mut self.pending[slot] else {
            self.stats.stray_writes += 1;
            return;
        };
        // Record payload coverage (slot bytes 8.. are payload).
        let start = within.max(8);
        let end = within + data.len();
        for b in start..end {
            let pay = b - 8;
            if pay < p.buf.len() {
                p.buf[pay] = data[b - within];
                p.got[pay] = true;
            }
        }
        if p.complete() {
            let p = self.pending[slot].take().expect("checked");
            let len = p.header.len as usize;
            let done = bus_cycle + self.cfg.process_cycles;
            let arrived_at = self.cfg.wire.arrival(done, len);
            self.stats.messages += 1;
            self.stats.payload_bytes += len as u64;
            self.messages.push(ReceivedMessage {
                sender: p.header.sender,
                seq: p.header.seq,
                payload: p.buf[..len].to_vec(),
                slot,
                first_bus_cycle: p.first_bus_cycle,
                completed_bus_cycle: bus_cycle,
                arrived_at,
            });
        }
    }

    /// Discards all in-flight assembly state, delivered messages, and
    /// counters, keeping the configuration (the warm-reset path).
    pub fn clear(&mut self) {
        for p in &mut self.pending {
            *p = None;
        }
        self.messages.clear();
        self.stats = NicStats::default();
    }

    /// Walks the NI's mutable state: counters, per-slot in-flight
    /// assembly (header, partial payload, coverage bitmap), and the
    /// delivered-message log. The configuration is *not* serialized — the
    /// restoring side must construct the NI with the same [`NicConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`csb_snap::SnapshotError`] if the frame is truncated, its
    /// slot layout disagrees with this NI's configuration, or it holds a
    /// message ingest never builds: a pending one longer than its slot
    /// carries, or a delivered sender or sequence number past 16 bits.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        let corrupt = |what: String| csb_snap::SnapshotError::Corrupt(what);
        s.tag("nic")?;
        let st = &mut self.stats;
        for v in [
            &mut st.messages,
            &mut st.payload_bytes,
            &mut st.torn_frames,
            &mut st.stray_writes,
            &mut st.invalid_headers,
        ] {
            s.u64(v)?;
        }
        let mut slots = self.pending.len();
        s.usize(&mut slots)?;
        if s.reading() && slots != self.cfg.slots {
            return Err(corrupt(format!(
                "NIC frame has {} slots, config has {}",
                slots, self.cfg.slots
            )));
        }
        let cap = max_payload(self.cfg.slot_size);
        let empty = || Pending {
            header: Header {
                len: 0,
                seq: 0,
                sender: 0,
            },
            buf: Vec::new(),
            got: Vec::new(),
            first_bus_cycle: 0,
        };
        for p in &mut self.pending {
            s.opt(p, empty, |s, p| {
                let h = p.header;
                let mut dword = encode_header(h.len, h.seq, h.sender);
                s.u64(&mut dword)?;
                if s.reading() {
                    p.header = decode_header(dword)
                        .ok_or_else(|| corrupt("NIC pending header lost its magic".into()))?;
                }
                if s.reading() && usize::from(p.header.len) > cap {
                    return Err(corrupt(format!(
                        "NIC pending message of {} bytes, slot carries {cap}",
                        p.header.len
                    )));
                }
                s.bytes(&mut p.buf)?;
                s.list(&mut p.got, cap, "NIC coverage bits", false, |s, g| {
                    s.bool(g)
                })?;
                if s.reading() && (p.buf.len() != cap || p.got.len() != cap) {
                    return Err(corrupt(format!(
                        "NIC pending buffers sized {}/{} bytes, slot carries {cap}",
                        p.buf.len(),
                        p.got.len()
                    )));
                }
                s.u64(&mut p.first_bus_cycle)
            })?;
        }
        let blank = ReceivedMessage {
            sender: 0,
            seq: 0,
            payload: Vec::new(),
            slot: 0,
            first_bus_cycle: 0,
            completed_bus_cycle: 0,
            arrived_at: 0,
        };
        s.list(
            &mut self.messages,
            usize::MAX,
            "NIC messages",
            blank,
            |s, m| {
                for field in [&mut m.sender, &mut m.seq] {
                    let mut v = u64::from(*field);
                    s.u64(&mut v)?;
                    *field = u16::try_from(v).map_err(|_| {
                        corrupt(format!("NIC message header field {v} past 16 bits"))
                    })?;
                }
                s.bytes(&mut m.payload)?;
                s.usize(&mut m.slot)?;
                s.u64(&mut m.first_bus_cycle)?;
                s.u64(&mut m.completed_bus_cycle)?;
                s.u64(&mut m.arrived_at)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_rejects_what_ingest_never_builds() {
        let cfg = NicConfig::default();
        let mut nic = Nic::new(cfg).unwrap();
        // Slot 0 mid-assembly, and one message delivered from slot 1.
        let open = encode_header(16, 0x5678, 0x1234);
        nic.ingest_bytes(0, &open.to_le_bytes(), 3);
        nic.ingest_bytes(64, &line_with(8, 0x5679, 0x1234, 7)[..16], 4);
        assert_eq!(nic.messages().len(), 1);
        let mut w = csb_snap::SnapshotWriter::new();
        nic.state(&mut w).expect("writing never fails");
        let frame = w.finish();
        // The frame with the first occurrence of `from` replaced by `to`.
        let patched = |from: u64, to: u64| {
            let at = frame
                .windows(8)
                .position(|b| b == from.to_le_bytes())
                .expect("value in frame");
            let mut bytes = frame.clone();
            bytes[at..at + 8].copy_from_slice(&to.to_le_bytes());
            bytes
        };
        let restore = |bytes: &[u8]| {
            let mut nic = Nic::new(cfg).unwrap();
            nic.state(&mut csb_snap::SnapshotReader::new(bytes))
        };
        assert!(restore(&frame).is_ok());
        // Ingest opens no message longer than its slot carries.
        let long = encode_header(200, 0x5678, 0x1234);
        assert!(restore(&patched(open, long)).is_err());
        // Senders and sequence numbers are 16-bit header fields.
        assert!(restore(&patched(0x1234, 0x1_0000_1234)).is_err());
        assert!(restore(&patched(0x5679, 0x1_0000_5679)).is_err());
    }

    fn line_with(len: u16, seq: u16, sender: u16, fill: u8) -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&encode_header(len, seq, sender).to_le_bytes());
        for b in &mut v[8..8 + len as usize] {
            *b = fill;
        }
        v
    }

    #[test]
    fn header_round_trip() {
        let h = decode_header(encode_header(48, 3, 9)).unwrap();
        assert_eq!(
            h,
            Header {
                len: 48,
                seq: 3,
                sender: 9
            }
        );
        assert_eq!(decode_header(0), None);
        assert_eq!(decode_header(u64::MAX >> 16), None);
    }

    #[test]
    fn config_validation() {
        assert!(Nic::new(NicConfig {
            slot_size: 8,
            ..NicConfig::default()
        })
        .is_err());
        assert!(Nic::new(NicConfig {
            slot_size: 48,
            ..NicConfig::default()
        })
        .is_err());
        assert!(Nic::new(NicConfig {
            slots: 0,
            ..NicConfig::default()
        })
        .is_err());
        let e = Nic::new(NicConfig {
            slots: 0,
            ..NicConfig::default()
        })
        .unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn burst_message_completes_immediately() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        nic.ingest_bytes(64, &line_with(24, 5, 2, 0x77), 40);
        assert_eq!(nic.messages().len(), 1);
        let m = &nic.messages()[0];
        assert_eq!((m.sender, m.seq, m.slot), (2, 5, 1));
        assert_eq!(m.payload, vec![0x77; 24]);
        assert_eq!(m.first_bus_cycle, 40);
        assert_eq!(m.completed_bus_cycle, 40);
        // 40 + 4 process + 20 wire + 3 dwords serialization.
        assert_eq!(m.arrived_at, 67);
        assert_eq!(m.device_latency(), 27);
    }

    #[test]
    fn dribbled_message_completes_on_last_byte() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        let line = line_with(16, 1, 1, 0x55);
        // Header first (single beat), then payload dwords out of order.
        nic.ingest_bytes(0, &line[..8], 10);
        assert!(nic.messages().is_empty());
        nic.ingest_bytes(16, &line[16..24], 12);
        assert!(nic.messages().is_empty());
        nic.ingest_bytes(8, &line[8..16], 14);
        assert_eq!(nic.messages().len(), 1);
        let m = &nic.messages()[0];
        assert_eq!(m.payload, vec![0x55; 16]);
        assert_eq!(m.first_bus_cycle, 10);
        assert_eq!(m.completed_bus_cycle, 14);
    }

    #[test]
    fn torn_frame_detected() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        // Message A: header + half its payload...
        let a = line_with(16, 1, 1, 0xaa);
        nic.ingest_bytes(0, &a[..8], 10);
        nic.ingest_bytes(8, &a[8..16], 11);
        // ...then message B's header lands in the same slot.
        let b = line_with(8, 2, 2, 0xbb);
        nic.ingest_bytes(0, &b[..8], 20);
        nic.ingest_bytes(8, &b[8..16], 21);
        assert_eq!(nic.stats().torn_frames, 1);
        assert_eq!(nic.messages().len(), 1);
        assert_eq!(nic.messages()[0].sender, 2);
    }

    #[test]
    fn stray_and_invalid_writes_counted() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        // Payload with no header in progress.
        nic.ingest_bytes(8, &[1; 8], 0);
        assert_eq!(nic.stats().stray_writes, 1);
        // Slot-start write without the magic.
        nic.ingest_bytes(0, &[0; 64], 1);
        assert_eq!(nic.stats().invalid_headers, 1);
        // Oversized declared length is rejected as invalid.
        let mut big = vec![0u8; 64];
        big[..8].copy_from_slice(&encode_header(60, 0, 0).to_le_bytes());
        nic.ingest_bytes(0, &big, 2);
        assert_eq!(nic.stats().invalid_headers, 2);
        assert!(nic.messages().is_empty());
    }

    #[test]
    fn writes_crossing_slots_split() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        // Two back-to-back slot bursts delivered as one 128-byte write.
        let mut data = line_with(8, 1, 1, 0x11);
        data.extend(line_with(8, 2, 1, 0x22));
        nic.ingest_bytes(0, &data, 5);
        assert_eq!(nic.messages().len(), 2);
        assert_eq!(nic.messages()[0].payload, vec![0x11; 8]);
        assert_eq!(nic.messages()[1].payload, vec![0x22; 8]);
    }

    #[test]
    fn writes_past_window_ignored() {
        let mut nic = Nic::new(NicConfig {
            slots: 1,
            ..NicConfig::default()
        })
        .unwrap();
        nic.ingest_bytes(64, &line_with(8, 1, 1, 0x33), 0);
        assert!(nic.messages().is_empty());
        assert_eq!(nic.stats().stray_writes, 0);
    }

    #[test]
    fn zero_length_message_is_a_pure_doorbell() {
        // A single 8-byte store as a doorbell, like Atoll's single-word DMA
        // launch: len = 0 completes instantly.
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        nic.ingest_bytes(0, &encode_header(0, 9, 4).to_le_bytes(), 33);
        assert_eq!(nic.messages().len(), 1);
        assert!(nic.messages()[0].payload.is_empty());
        assert_eq!(nic.messages()[0].seq, 9);
    }

    #[test]
    fn wire_model_arrival() {
        let w = WireModel {
            latency: 10,
            cycles_per_dword: 2,
        };
        assert_eq!(w.arrival(100, 0), 110);
        assert_eq!(w.arrival(100, 8), 112);
        assert_eq!(w.arrival(100, 17), 116); // 3 dwords
    }

    #[test]
    fn partial_write_then_new_header_tears() {
        // A burst that covers the header but only part of the payload,
        // followed immediately by the next message's full burst: the
        // incomplete frame is torn, the complete one delivers.
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        let a = line_with(32, 1, 1, 0xaa);
        nic.ingest_bytes(0, &a[..24], 10); // header + 16 of 32 payload bytes
        assert!(nic.messages().is_empty());
        nic.ingest_bytes(0, &line_with(8, 2, 1, 0xbb), 20);
        assert_eq!(nic.stats().torn_frames, 1);
        assert_eq!(nic.messages().len(), 1);
        assert_eq!(nic.messages()[0].seq, 2);
    }

    #[test]
    fn interleaved_slots_assemble_independently() {
        // Two senders dribbling into different slots concurrently: no
        // tearing, both messages complete with their own timestamps.
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        let a = line_with(8, 1, 1, 0x11);
        let b = line_with(8, 7, 2, 0x22);
        nic.ingest_bytes(0, &a[..8], 10);
        nic.ingest_bytes(64, &b[..8], 11);
        nic.ingest_bytes(64 + 8, &b[8..16], 12);
        nic.ingest_bytes(8, &a[8..16], 13);
        assert_eq!(nic.stats().torn_frames, 0);
        assert_eq!(nic.messages().len(), 2);
        assert_eq!(nic.messages()[0].sender, 2);
        assert_eq!(nic.messages()[0].first_bus_cycle, 11);
        assert_eq!(nic.messages()[1].sender, 1);
        assert_eq!(nic.messages()[1].first_bus_cycle, 10);
    }

    #[test]
    fn save_restore_round_trips_mid_assembly() {
        let cfg = NicConfig::default();
        let mut nic = Nic::new(cfg).unwrap();
        // One delivered message, one in-flight half-assembled frame.
        nic.ingest_bytes(0, &line_with(16, 1, 3, 0x44), 5);
        let partial = line_with(24, 2, 3, 0x55);
        nic.ingest_bytes(64, &partial[..16], 9);
        let mut w = csb_snap::SnapshotWriter::new();
        nic.state(&mut w).expect("writing never fails");
        let bytes = w.finish();

        let mut restored = Nic::new(cfg).unwrap();
        let mut r = csb_snap::SnapshotReader::new(&bytes);
        restored.state(&mut r).unwrap();
        assert_eq!(restored.stats(), nic.stats());
        assert_eq!(restored.messages(), nic.messages());
        // Completing the in-flight frame behaves identically on both sides.
        for n in [&mut nic, &mut restored] {
            n.ingest_bytes(64 + 16, &partial[16..32], 30);
        }
        assert_eq!(restored.messages(), nic.messages());
        assert_eq!(nic.messages().len(), 2);
    }

    #[test]
    fn restore_rejects_mismatched_slot_count() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        let mut w = csb_snap::SnapshotWriter::new();
        nic.state(&mut w).expect("writing never fails");
        let bytes = w.finish();
        let mut other = Nic::new(NicConfig {
            slots: 8,
            ..NicConfig::default()
        })
        .unwrap();
        let mut r = csb_snap::SnapshotReader::new(&bytes);
        assert!(other.state(&mut r).is_err());
        // The original still restores cleanly.
        let mut r = csb_snap::SnapshotReader::new(&bytes);
        nic.state(&mut r).unwrap();
        let _checksum = r.take_u64().unwrap();
        r.expect_end("nic frame").unwrap();
    }

    #[test]
    fn clear_resets_everything_but_config() {
        let mut nic = Nic::new(NicConfig::default()).unwrap();
        nic.ingest_bytes(0, &line_with(8, 1, 1, 0x66), 1);
        let partial = line_with(24, 2, 1, 0x77);
        nic.ingest_bytes(64, &partial[..16], 2);
        nic.clear();
        assert_eq!(nic.stats(), &NicStats::default());
        assert!(nic.messages().is_empty());
        // The half-built frame in slot 1 is gone: its payload is now stray.
        nic.ingest_bytes(64 + 16, &partial[16..24], 3);
        assert_eq!(nic.stats().stray_writes, 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn header_encode_decode_round_trip(len in any::<u16>(), seq in any::<u16>(), sender in any::<u16>()) {
                let h = decode_header(encode_header(len, seq, sender)).unwrap();
                prop_assert_eq!(h, Header { len, seq, sender });
            }

            #[test]
            fn malformed_dwords_rejected(dword in any::<u64>()) {
                let decoded = decode_header(dword);
                if (dword >> 48) as u16 == HEADER_MAGIC {
                    prop_assert!(decoded.is_some());
                } else {
                    prop_assert_eq!(decoded, None);
                }
            }

            #[test]
            fn arrival_is_monotone(
                latency in 0u64..1_000_000,
                cpd in 0u64..1_000,
                done_a in 0u64..1_000_000_000,
                done_step in 0u64..1_000_000,
                len_a in 0usize..100_000,
                len_step in 0usize..10_000,
            ) {
                let w = WireModel { latency, cycles_per_dword: cpd };
                // Never earlier than completion, monotone in both arguments.
                prop_assert!(w.arrival(done_a, len_a) >= done_a + latency);
                prop_assert!(w.arrival(done_a + done_step, len_a) >= w.arrival(done_a, len_a));
                prop_assert!(w.arrival(done_a, len_a + len_step) >= w.arrival(done_a, len_a));
            }

            #[test]
            fn snapshot_round_trips_random_write_streams(
                writes in proptest::collection::vec(
                    (0u64..2048, proptest::collection::vec(any::<u8>(), 1..96), 0u64..10_000),
                    0..24,
                ),
            ) {
                let cfg = NicConfig::default();
                let mut nic = Nic::new(cfg).unwrap();
                for (offset, data, bus_cycle) in &writes {
                    nic.ingest_bytes(*offset, data, *bus_cycle);
                }
                let mut w = csb_snap::SnapshotWriter::new();
                nic.state(&mut w).expect("writing never fails");
                let bytes = w.finish();
                let mut restored = Nic::new(cfg).unwrap();
                let mut r = csb_snap::SnapshotReader::new(&bytes);
                restored.state(&mut r).unwrap();
                let _checksum = r.take_u64().unwrap();
                r.expect_end("nic frame").unwrap();
                prop_assert_eq!(restored.stats(), nic.stats());
                prop_assert_eq!(restored.messages(), nic.messages());
                // And the restored frame re-serializes byte-identically.
                let mut w2 = csb_snap::SnapshotWriter::new();
                restored.state(&mut w2).expect("writing never fails");
                prop_assert_eq!(w2.finish(), bytes);
            }
        }
    }
}
