//! The `alphahashd` wire protocol: framing, operation/status codes, and
//! the payload codecs shared by server and client.
//!
//! The byte-level contract lives in `docs/PROTOCOL.md`; the
//! [`spec_documents_the_compiled_constants`](#) test at the bottom of
//! this file keeps that document honest against the compiled constants,
//! the same pattern `persist/format.rs` uses for the persistence spec.
//!
//! Everything is little-endian, hand-rolled over `std::io` like the
//! persistence format — no serde, no tokio. A connection is a sequence
//! of **frames**; each frame is one request or response payload guarded
//! by length and CRC:
//!
//! ```text
//! [len: u32][crc32(payload): u32][payload: len bytes]
//! ```
//!
//! Request payloads start with an op code byte, response payloads with a
//! status byte; batch operations stream as an announce frame, chunk
//! frames, and an end frame in each direction (see `docs/PROTOCOL.md`).

use std::io::{self, Read, Write};

use alpha_store::persist::format::crc32;
use lambda_lang::visit::postorder;
use lambda_lang::{ExprArena, ExprNode, Literal, NodeId};

/// First bytes of every connection: the client's handshake frame opens
/// with this magic so a server can reject strangers (an HTTP request,
/// a stray TLS hello) before parsing anything else.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"AHDP";

/// Wire protocol version, bumped on any incompatible frame or payload
/// change. Client sends it in the handshake; a server that cannot speak
/// it answers [`ERR_UNSUPPORTED_VERSION`] and closes.
///
/// Version 2 added the [`OP_UPDATE`] operation and widened
/// [`RemoteOutcome`] with the term handle (33 → 41 bytes), so version-1
/// clients cannot parse version-2 responses.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard upper bound on one frame's payload, enforced by both sides
/// before allocating: a length prefix beyond this is treated as a
/// protocol violation, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// Op codes (first byte of a request payload).

/// Ingest one term; response carries its [`RemoteOutcome`].
pub const OP_INSERT: u8 = 0x01;
/// Announce a streamed insert batch ([`OP_BATCH_CHUNK`]* then
/// [`OP_BATCH_END`] follow on the same connection).
pub const OP_INSERT_BATCH: u8 = 0x02;
/// One chunk of a streamed batch: `[count: u32]` followed by that many
/// encoded terms.
pub const OP_BATCH_CHUNK: u8 = 0x03;
/// Terminates a streamed batch; the server's responses follow.
pub const OP_BATCH_END: u8 = 0x04;
/// Exact-match class lookup of one term (no ingest).
pub const OP_LOOKUP: u8 = 0x05;
/// Containment query modulo alpha for one pattern.
pub const OP_CONTAINS: u8 = 0x06;
/// Announce a streamed containment batch (same chunk framing as insert).
pub const OP_CONTAINS_BATCH: u8 = 0x07;
/// Store statistics + health + recovery snapshot ([`RemoteStats`]).
pub const OP_STATS: u8 = 0x08;
/// Prometheus exposition-format metrics text.
pub const OP_METRICS_PROMETHEUS: u8 = 0x09;
/// Checkpoint the store (snapshot + WAL reset), serialized against
/// serving by the store's maintenance lock.
pub const OP_CHECKPOINT: u8 = 0x0A;
/// Ask the daemon to shut down gracefully: drain, checkpoint, release
/// the directory lock. Acknowledged before the drain begins.
pub const OP_SHUTDOWN: u8 = 0x0B;
/// Incrementally rewrite one previously ingested term in place
/// ([`alpha_store::AlphaStore::try_update`]): payload is the term
/// handle, the rewrite path and the replacement term (see
/// [`put_update`]). Response carries the updated [`RemoteOutcome`].
pub const OP_UPDATE: u8 = 0x0C;

// ---------------------------------------------------------------------
// Status codes (first byte of a response payload).

/// Success; body is op-specific.
pub const RESP_OK: u8 = 0x00;
/// One chunk of a streamed batch response: `[count: u32]` + items.
pub const RESP_CHUNK: u8 = 0x01;
/// Terminates a streamed batch response: `[total items: u64]`.
pub const RESP_END: u8 = 0x02;

/// Frame or payload the server could not parse (bad handshake, bad
/// CRC is a connection-fatal [`WireError::Frame`] instead).
pub const ERR_MALFORMED: u8 = 0x80;
/// Handshake carried a protocol version this server does not speak.
pub const ERR_UNSUPPORTED_VERSION: u8 = 0x81;
/// Unknown op code.
pub const ERR_BAD_OP: u8 = 0x82;
/// A term payload failed to decode (forward reference, bad tag, …).
pub const ERR_TERM: u8 = 0x83;
/// The store is read-only ([`alpha_store::StoreError::Degraded`]):
/// ingest refused, reads still serving.
pub const ERR_READ_ONLY: u8 = 0x84;
/// The daemon is draining for shutdown and no longer accepts work.
pub const ERR_SHUTTING_DOWN: u8 = 0x85;
// 0x86 is retired (it was `ERR_UNSUPPORTED`, sent when a server was
// built without metrics) and must never be reused.
/// An [`OP_UPDATE`] rewrite was refused before any state changed
/// ([`alpha_store::StoreError::InvalidRewrite`]): unknown term handle,
/// a path that does not resolve, or a replacement that would capture a
/// binder of the host term.
pub const ERR_INVALID_REWRITE: u8 = 0x87;

/// [`alpha_store::PersistError::Io`] surfaced by an ingest/checkpoint.
pub const ERR_PERSIST_IO: u8 = 0x90;
/// [`alpha_store::PersistError::Corrupt`] — on-disk damage.
pub const ERR_PERSIST_CORRUPT: u8 = 0x91;
/// [`alpha_store::PersistError::Mismatch`] — configuration disagreement.
pub const ERR_PERSIST_MISMATCH: u8 = 0x92;
/// [`alpha_store::PersistError::Locked`] — directory lock contention.
pub const ERR_PERSIST_LOCKED: u8 = 0x93;
/// [`alpha_store::PersistError::Wal`] — live WAL failure.
pub const ERR_PERSIST_WAL: u8 = 0x94;
/// [`alpha_store::PersistError::Snapshot`] — snapshot protocol failure.
pub const ERR_PERSIST_SNAPSHOT: u8 = 0x95;

/// The stable wire code for a [`alpha_store::StoreError`], per the
/// PROTOCOL.md error table: `Degraded` (the read-only refusal) maps to
/// [`ERR_READ_ONLY`]; `Persist` maps per variant.
pub fn store_error_code(e: &alpha_store::StoreError) -> u8 {
    match e {
        alpha_store::StoreError::Degraded { .. } => ERR_READ_ONLY,
        alpha_store::StoreError::Persist(p) => persist_error_code(p),
        alpha_store::StoreError::InvalidRewrite { .. } => ERR_INVALID_REWRITE,
    }
}

/// The stable wire code for a [`alpha_store::PersistError`] variant.
pub fn persist_error_code(e: &alpha_store::PersistError) -> u8 {
    use alpha_store::PersistError as P;
    match e {
        P::Io(_) => ERR_PERSIST_IO,
        P::Corrupt { .. } => ERR_PERSIST_CORRUPT,
        P::Mismatch { .. } => ERR_PERSIST_MISMATCH,
        P::Locked { .. } => ERR_PERSIST_LOCKED,
        P::Wal { .. } => ERR_PERSIST_WAL,
        P::Snapshot { .. } => ERR_PERSIST_SNAPSHOT,
    }
}

// ---------------------------------------------------------------------
// Errors.

/// What can go wrong speaking the protocol, from either side's view.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed or closed unexpectedly.
    Io(io::Error),
    /// The peer violated the framing or payload contract: oversized
    /// length prefix, CRC mismatch, truncated payload, impossible tag.
    /// Connection-fatal — there is no resynchronization point.
    Frame(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Frame(msg) => write!(f, "wire protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Frame(_) => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn frame_err(msg: impl Into<String>) -> WireError {
    WireError::Frame(msg.into())
}

// ---------------------------------------------------------------------
// Framing.

/// Writes one frame: length + CRC header, then the payload, flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| frame_err("payload exceeds u32"))?;
    if len > MAX_FRAME_LEN {
        return Err(frame_err(format!(
            "payload of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying the length bound and the payload CRC.
/// `Ok(None)` means the peer closed the connection cleanly *between*
/// frames; EOF mid-frame is a [`WireError::Frame`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 8];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        8 => {}
        n => {
            return Err(frame_err(format!(
                "connection closed {n} bytes into a frame header"
            )))
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(frame_err(format!(
            "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload)?;
    if got != payload.len() {
        return Err(frame_err(format!(
            "connection closed {got} bytes into a {len}-byte payload"
        )));
    }
    let actual = crc32(&payload);
    if actual != crc {
        return Err(frame_err(format!(
            "payload CRC {actual:#010x} does not match header CRC {crc:#010x}"
        )));
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact` this reports a clean EOF at offset 0 distinguishably,
/// and retries on `Interrupted`.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------
// Scalar codecs (the persistence format's idiom, re-rolled here because
// those helpers are crate-private to alpha-store and return its error).

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn take_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take_bytes(input, 1)?[0])
}

pub(crate) fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(frame_err(format!(
            "payload truncated: wanted {n} more bytes, have {}",
            input.len()
        )));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

pub(crate) fn take_u16(input: &mut &[u8]) -> Result<u16, WireError> {
    let b = take_bytes(input, 2)?;
    Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
}

pub(crate) fn take_u32(input: &mut &[u8]) -> Result<u32, WireError> {
    let b = take_bytes(input, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

pub(crate) fn take_u64(input: &mut &[u8]) -> Result<u64, WireError> {
    let b = take_bytes(input, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

pub(crate) fn take_str(input: &mut &[u8]) -> Result<String, WireError> {
    let len = take_u32(input)? as usize;
    let bytes = take_bytes(input, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| frame_err("string is not UTF-8"))
}

// ---------------------------------------------------------------------
// Term codec.

const NODE_VAR: u8 = 0;
const NODE_LAM: u8 = 1;
const NODE_APP: u8 = 2;
const NODE_LET: u8 = 3;
const NODE_LIT: u8 = 4;

const LIT_I64: u8 = 0;
const LIT_F64_BITS: u8 = 1;
const LIT_BOOL: u8 = 2;

/// Encodes one term as a postorder node run: a name table (the binder
/// and variable names this term uses), then the nodes, children
/// referenced by their position earlier in the run. The root is the
/// last node. Appended to `out` so batch chunks concatenate terms.
///
/// The run is always a tree: every position is referenced at most once,
/// as [`take_term`] requires. An arena node shared by several parents is
/// emitted once per occurrence.
pub fn put_term(out: &mut Vec<u8>, arena: &ExprArena, root: NodeId) {
    let order = postorder(arena, root);
    // Positions of emitted subtrees not yet claimed by a parent. In
    // postorder a node's children are the topmost entries, last child
    // on top, so popping them yields each occurrence's own position.
    let mut pending: Vec<u32> = Vec::new();
    // Names are interned into a per-term table in first-use order.
    let mut names: Vec<&str> = Vec::new();
    let mut name_idx: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    // First pass: build the name table in first-use order.
    for &id in &order {
        match arena.node(id) {
            ExprNode::Var(s) | ExprNode::Lam(s, _) | ExprNode::Let(s, _, _) => {
                let name = arena.name(s);
                name_idx.entry(name).or_insert_with(|| {
                    names.push(name);
                    u32::try_from(names.len() - 1).expect("name table fits u32")
                });
            }
            ExprNode::App(..) | ExprNode::Lit(_) => {}
        }
    }
    put_u32(
        out,
        u32::try_from(names.len()).expect("name table fits u32"),
    );
    for name in &names {
        put_str(out, name);
    }
    put_u32(out, u32::try_from(order.len()).expect("node run fits u32"));
    for (i, &id) in order.iter().enumerate() {
        let i = u32::try_from(i).expect("node run fits u32");
        let mut child = || pending.pop().expect("postorder emits children first");
        match arena.node(id) {
            ExprNode::Var(s) => {
                put_u8(out, NODE_VAR);
                put_u32(out, name_idx[arena.name(s)]);
            }
            ExprNode::Lam(s, _) => {
                put_u8(out, NODE_LAM);
                put_u32(out, name_idx[arena.name(s)]);
                put_u32(out, child());
            }
            ExprNode::App(..) => {
                let (a, f) = (child(), child());
                put_u8(out, NODE_APP);
                put_u32(out, f);
                put_u32(out, a);
            }
            ExprNode::Let(s, ..) => {
                let (body, rhs) = (child(), child());
                put_u8(out, NODE_LET);
                put_u32(out, name_idx[arena.name(s)]);
                put_u32(out, rhs);
                put_u32(out, body);
            }
            ExprNode::Lit(lit) => {
                put_u8(out, NODE_LIT);
                match lit {
                    Literal::I64(v) => {
                        put_u8(out, LIT_I64);
                        put_u64(out, v as u64);
                    }
                    Literal::F64Bits(bits) => {
                        put_u8(out, LIT_F64_BITS);
                        put_u64(out, bits);
                    }
                    Literal::Bool(b) => {
                        put_u8(out, LIT_BOOL);
                        put_u8(out, u8::from(b));
                    }
                }
            }
        }
        pending.push(i);
    }
}

/// Decodes one term into `arena`, returning its root. Rejects forward
/// or self child references, a second reference to any position, and
/// out-of-range name indices. So the root's tree has at most as many
/// nodes as the run, and a short frame cannot stand for an
/// exponentially large term; nodes no parent references are decoded
/// and left unused.
pub fn take_term(input: &mut &[u8], arena: &mut ExprArena) -> Result<NodeId, WireError> {
    // Counts are checked against the bytes left before anything is
    // sized by them: a name takes at least 4 bytes, a node at least 3.
    let name_count = take_u32(input)? as usize;
    if name_count > input.len() / 4 {
        return Err(frame_err(format!(
            "name count {name_count} exceeds the payload"
        )));
    }
    let mut syms = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        let name = take_str(input)?;
        syms.push(arena.intern(&name));
    }
    let node_count = take_u32(input)? as usize;
    if node_count == 0 {
        return Err(frame_err("term has zero nodes"));
    }
    if node_count > input.len() / 3 {
        return Err(frame_err(format!(
            "node count {node_count} exceeds the payload"
        )));
    }
    let mut ids: Vec<NodeId> = Vec::with_capacity(node_count);
    // Positions some earlier node already took as a child.
    let mut referenced = vec![false; node_count];
    let sym = |syms: &[lambda_lang::Symbol], i: u32| {
        syms.get(i as usize)
            .copied()
            .ok_or_else(|| frame_err(format!("name index {i} out of range ({name_count} names)")))
    };
    for i in 0..node_count {
        let mut child = |ids: &[NodeId], p: u32| {
            let p = p as usize;
            if p >= i {
                Err(frame_err(format!(
                    "child reference {p} at node {i} is not backward"
                )))
            } else if std::mem::replace(&mut referenced[p], true) {
                Err(frame_err(format!(
                    "child reference {p} at node {i} reuses a referenced node"
                )))
            } else {
                Ok(ids[p])
            }
        };
        let id = match take_u8(input)? {
            NODE_VAR => {
                let s = sym(&syms, take_u32(input)?)?;
                arena.var(s)
            }
            NODE_LAM => {
                let s = sym(&syms, take_u32(input)?)?;
                let body = child(&ids, take_u32(input)?)?;
                arena.lam(s, body)
            }
            NODE_APP => {
                let f = child(&ids, take_u32(input)?)?;
                let a = child(&ids, take_u32(input)?)?;
                arena.app(f, a)
            }
            NODE_LET => {
                let s = sym(&syms, take_u32(input)?)?;
                let rhs = child(&ids, take_u32(input)?)?;
                let body = child(&ids, take_u32(input)?)?;
                arena.let_(s, rhs, body)
            }
            NODE_LIT => match take_u8(input)? {
                LIT_I64 => arena.lit(Literal::I64(take_u64(input)? as i64)),
                LIT_F64_BITS => arena.lit(Literal::F64Bits(take_u64(input)?)),
                LIT_BOOL => arena.lit(Literal::Bool(take_u8(input)? != 0)),
                tag => return Err(frame_err(format!("unknown literal tag {tag}"))),
            },
            tag => return Err(frame_err(format!("unknown node tag {tag}"))),
        };
        ids.push(id);
    }
    Ok(*ids.last().expect("node_count > 0"))
}

// ---------------------------------------------------------------------
// Shared payload structures.

/// What the server tells a client right after the handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// Protocol version the server will speak on this connection.
    pub version: u16,
    /// Hash width of the store behind the daemon (64 or 128).
    pub hash_bits: u16,
    /// Shards in the store.
    pub shard_count: u32,
    /// `None` for roots granularity, `Some(min_nodes)` for
    /// subexpression granularity.
    pub subexpr_min_nodes: Option<u64>,
}

/// Encodes the handshake request payload (what `Client::connect` sends).
pub fn put_handshake(out: &mut Vec<u8>, version: u16) {
    out.extend_from_slice(&PROTOCOL_MAGIC);
    put_u16(out, version);
}

/// Decodes a handshake request, returning the client's version.
pub fn take_handshake(input: &mut &[u8]) -> Result<u16, WireError> {
    let magic = take_bytes(input, 4)?;
    if magic != PROTOCOL_MAGIC {
        return Err(frame_err(
            "handshake magic mismatch: not an alphahashd client",
        ));
    }
    take_u16(input)
}

/// Encodes the server hello body (after the [`RESP_OK`] status byte).
pub fn put_hello(out: &mut Vec<u8>, hello: &ServerHello) {
    put_u16(out, hello.version);
    put_u16(out, hello.hash_bits);
    put_u32(out, hello.shard_count);
    match hello.subexpr_min_nodes {
        None => put_u8(out, 0),
        Some(m) => {
            put_u8(out, 1);
            put_u64(out, m);
        }
    }
}

/// Decodes a server hello body.
pub fn take_hello(input: &mut &[u8]) -> Result<ServerHello, WireError> {
    let version = take_u16(input)?;
    let hash_bits = take_u16(input)?;
    let shard_count = take_u32(input)?;
    let subexpr_min_nodes = match take_u8(input)? {
        0 => None,
        1 => Some(take_u64(input)?),
        tag => return Err(frame_err(format!("unknown granularity tag {tag}"))),
    };
    Ok(ServerHello {
        version,
        hash_bits,
        shard_count,
        subexpr_min_nodes,
    })
}

/// One ingested or updated term's outcome as it crosses the wire: the
/// term handle and class as opaque `to_bits` words plus the freshness
/// and subexpression summary of the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteOutcome {
    /// The term handle, as [`alpha_store::TermId::to_bits`] bits — what
    /// [`OP_UPDATE`] takes to address this term later.
    pub term: u64,
    /// The class, as [`alpha_store::ClassId::to_bits`] bits.
    pub class: u64,
    /// `true` iff this operation created the class.
    pub fresh: bool,
    /// Proper subexpression occurrences indexed by this operation.
    pub subs_indexed: u64,
    /// Of those, occurrences merged into an existing class.
    pub subs_merged: u64,
    /// Occurrences skipped by the granularity's `min_nodes` floor.
    pub subs_skipped_min_nodes: u64,
}

impl From<&alpha_store::InsertOutcome> for RemoteOutcome {
    fn from(o: &alpha_store::InsertOutcome) -> Self {
        RemoteOutcome {
            term: o.term.to_bits(),
            class: o.class.to_bits(),
            fresh: o.fresh,
            subs_indexed: o.subs.indexed,
            subs_merged: o.subs.merged,
            subs_skipped_min_nodes: o.subs.skipped_min_nodes,
        }
    }
}

impl From<&alpha_store::UpdateOutcome> for RemoteOutcome {
    fn from(o: &alpha_store::UpdateOutcome) -> Self {
        RemoteOutcome {
            term: o.term.to_bits(),
            class: o.class.to_bits(),
            fresh: o.fresh,
            subs_indexed: o.subs.indexed,
            subs_merged: o.subs.merged,
            subs_skipped_min_nodes: o.subs.skipped_min_nodes,
        }
    }
}

/// Encodes one [`RemoteOutcome`] (a fixed 41-byte record).
pub fn put_outcome(out: &mut Vec<u8>, o: &RemoteOutcome) {
    put_u64(out, o.term);
    put_u64(out, o.class);
    put_u8(out, u8::from(o.fresh));
    put_u64(out, o.subs_indexed);
    put_u64(out, o.subs_merged);
    put_u64(out, o.subs_skipped_min_nodes);
}

/// Decodes one [`RemoteOutcome`].
pub fn take_outcome(input: &mut &[u8]) -> Result<RemoteOutcome, WireError> {
    Ok(RemoteOutcome {
        term: take_u64(input)?,
        class: take_u64(input)?,
        fresh: take_u8(input)? != 0,
        subs_indexed: take_u64(input)?,
        subs_merged: take_u64(input)?,
        subs_skipped_min_nodes: take_u64(input)?,
    })
}

/// Encodes an [`OP_UPDATE`] request body (after the op byte): the term
/// handle, the rewrite path (child-slot steps into the term's canonical
/// representative), and the replacement term.
pub fn put_update(out: &mut Vec<u8>, term: u64, path: &[u32], arena: &ExprArena, root: NodeId) {
    put_u64(out, term);
    put_u32(out, u32::try_from(path.len()).expect("path fits u32"));
    for &slot in path {
        put_u32(out, slot);
    }
    put_term(out, arena, root);
}

/// Decodes an [`OP_UPDATE`] request body into `(term bits, path, patch
/// root)`, with the patch decoded into `arena`.
pub fn take_update(
    input: &mut &[u8],
    arena: &mut ExprArena,
) -> Result<(u64, Vec<u32>, NodeId), WireError> {
    let term = take_u64(input)?;
    let path_len = take_u32(input)? as usize;
    let mut path = Vec::with_capacity(path_len.min(1024));
    for _ in 0..path_len {
        path.push(take_u32(input)?);
    }
    let root = take_term(input, arena)?;
    Ok((term, path, root))
}

/// Encodes an optional class (lookup / contains responses and
/// contains-batch items): presence byte + bits when present.
pub fn put_opt_class(out: &mut Vec<u8>, class: Option<u64>) {
    match class {
        None => put_u8(out, 0),
        Some(bits) => {
            put_u8(out, 1);
            put_u64(out, bits);
        }
    }
}

/// Decodes an optional class.
pub fn take_opt_class(input: &mut &[u8]) -> Result<Option<u64>, WireError> {
    match take_u8(input)? {
        0 => Ok(None),
        1 => Ok(Some(take_u64(input)?)),
        tag => Err(frame_err(format!("unknown option tag {tag}"))),
    }
}

/// Point-in-time store state as served by [`OP_STATS`]: the ingest
/// counters, the class/term census, durability and health, what
/// recovery did at open, and the full metrics report as JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RemoteStats {
    /// Terms ingested.
    pub terms_ingested: u64,
    /// Classes created.
    pub classes_created: u64,
    /// Root-level merges confirmed by canonical comparison.
    pub merges_confirmed: u64,
    /// True hash collisions kept as separate classes.
    pub hash_collisions: u64,
    /// Always zero — merges are never taken on hash alone.
    pub unconfirmed_merges: u64,
    /// Subexpression entries indexed.
    pub subterms_indexed: u64,
    /// Subexpression merges confirmed.
    pub subterm_merges_confirmed: u64,
    /// Subexpressions skipped by the `min_nodes` floor.
    pub subterms_skipped_min_nodes: u64,
    /// Distinct classes currently in the store.
    pub num_classes: u64,
    /// Terms currently tracked by the store.
    pub num_terms: u64,
    /// WAL records since the last checkpoint; `None` for in-memory.
    pub wal_records: Option<u64>,
    /// Health state code (0 healthy / 1 degraded / 2 read-only).
    pub health_code: u8,
    /// Health failure description (empty when healthy).
    pub health_reason: String,
    /// WAL records replayed when the store was opened, with the
    /// clean-reopen flag; `None` for in-memory or fresh stores.
    pub recovery: Option<(u64, bool)>,
    /// The store's `obs_report().to_json()`.
    pub obs_json: String,
}

/// Encodes a [`RemoteStats`] body.
pub fn put_stats(out: &mut Vec<u8>, s: &RemoteStats) {
    put_u64(out, s.terms_ingested);
    put_u64(out, s.classes_created);
    put_u64(out, s.merges_confirmed);
    put_u64(out, s.hash_collisions);
    put_u64(out, s.unconfirmed_merges);
    put_u64(out, s.subterms_indexed);
    put_u64(out, s.subterm_merges_confirmed);
    put_u64(out, s.subterms_skipped_min_nodes);
    put_u64(out, s.num_classes);
    put_u64(out, s.num_terms);
    match s.wal_records {
        None => put_u8(out, 0),
        Some(n) => {
            put_u8(out, 1);
            put_u64(out, n);
        }
    }
    put_u8(out, s.health_code);
    put_str(out, &s.health_reason);
    match s.recovery {
        None => put_u8(out, 0),
        Some((replayed, clean)) => {
            put_u8(out, 1);
            put_u64(out, replayed);
            put_u8(out, u8::from(clean));
        }
    }
    put_str(out, &s.obs_json);
}

/// Decodes a [`RemoteStats`] body.
pub fn take_stats(input: &mut &[u8]) -> Result<RemoteStats, WireError> {
    let mut s = RemoteStats {
        terms_ingested: take_u64(input)?,
        classes_created: take_u64(input)?,
        merges_confirmed: take_u64(input)?,
        hash_collisions: take_u64(input)?,
        unconfirmed_merges: take_u64(input)?,
        subterms_indexed: take_u64(input)?,
        subterm_merges_confirmed: take_u64(input)?,
        subterms_skipped_min_nodes: take_u64(input)?,
        num_classes: take_u64(input)?,
        num_terms: take_u64(input)?,
        ..RemoteStats::default()
    };
    s.wal_records = match take_u8(input)? {
        0 => None,
        1 => Some(take_u64(input)?),
        tag => return Err(frame_err(format!("unknown option tag {tag}"))),
    };
    s.health_code = take_u8(input)?;
    s.health_reason = take_str(input)?;
    s.recovery = match take_u8(input)? {
        0 => None,
        1 => Some((take_u64(input)?, take_u8(input)? != 0)),
        tag => return Err(frame_err(format!("unknown option tag {tag}"))),
    };
    s.obs_json = take_str(input)?;
    Ok(s)
}

/// Encodes an error response: status byte + message string.
pub fn put_error(out: &mut Vec<u8>, code: u8, message: &str) {
    put_u8(out, code);
    put_str(out, message);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse;

    /// A parsed term, and a term whose arena shares nodes between
    /// parents (`App(x, x)` with `x` itself shared below), which encodes
    /// with one copy per occurrence, so the run stays a tree.
    #[test]
    fn term_round_trips_exactly() {
        let mut src_arena = ExprArena::new();
        let parsed =
            parse(&mut src_arena, r"let f = \x. \y. x + (y * 2) in f true 3").expect("parses");
        let y = src_arena.intern("y");
        let leaf = src_arena.var(y);
        let pair = src_arena.app(leaf, leaf);
        let twice = src_arena.app(pair, pair);
        let shared = src_arena.lam(y, twice);
        for root in [parsed, shared] {
            let mut bytes = Vec::new();
            put_term(&mut bytes, &src_arena, root);
            let mut input = bytes.as_slice();
            let mut dst_arena = ExprArena::new();
            let decoded = take_term(&mut input, &mut dst_arena).expect("decodes");
            assert!(input.is_empty(), "decoder consumed the whole run");
            assert!(
                lambda_lang::alpha_eq(&src_arena, root, &dst_arena, decoded),
                "decoded term is alpha-equal to the original"
            );
            // Names survive verbatim, so the round trip is printed-identical
            // too, not just alpha-equal.
            assert_eq!(
                lambda_lang::print(&src_arena, root),
                lambda_lang::print(&dst_arena, decoded)
            );
        }
    }

    #[test]
    fn term_decoder_rejects_forward_references() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0); // no names
        put_u32(&mut bytes, 2); // two nodes
        put_u8(&mut bytes, NODE_APP); // children point forward/self
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 1);
        put_u8(&mut bytes, NODE_LIT);
        put_u8(&mut bytes, LIT_BOOL);
        put_u8(&mut bytes, 1);
        let mut arena = ExprArena::new();
        let err = take_term(&mut bytes.as_slice(), &mut arena);
        assert!(matches!(err, Err(WireError::Frame(_))));
    }

    /// An `App(n, n)` doubling chain: one `Var`, then 20 `App` nodes whose
    /// two children are both the previous node. 198 bytes that would
    /// stand for a 2,097,151-node tree.
    #[test]
    fn term_decoder_rejects_reused_references() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "n");
        put_u32(&mut bytes, 21);
        put_u8(&mut bytes, NODE_VAR);
        put_u32(&mut bytes, 0);
        for i in 0..20 {
            put_u8(&mut bytes, NODE_APP);
            put_u32(&mut bytes, i);
            put_u32(&mut bytes, i);
        }
        assert_eq!(bytes.len(), 198);
        let mut arena = ExprArena::new();
        let err = take_term(&mut bytes.as_slice(), &mut arena);
        assert!(matches!(err, Err(WireError::Frame(_))), "{err:?}");
        assert!(arena.len() <= 21, "decoding stops at the first reuse");
    }

    #[test]
    fn term_decoder_rejects_counts_larger_than_the_payload() {
        for (names, nodes) in [(u32::MAX, 1), (0, u32::MAX)] {
            let mut bytes = Vec::new();
            put_u32(&mut bytes, names);
            put_u32(&mut bytes, nodes);
            put_u8(&mut bytes, NODE_LIT);
            put_u8(&mut bytes, LIT_BOOL);
            put_u8(&mut bytes, 1);
            let mut arena = ExprArena::new();
            let err = take_term(&mut bytes.as_slice(), &mut arena);
            assert!(matches!(err, Err(WireError::Frame(_))), "{err:?}");
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let payload = b"hello alphahashd".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("writes");
        let got = read_frame(&mut buf.as_slice())
            .expect("reads")
            .expect("one frame");
        assert_eq!(got, payload);
        // Flip one payload bit: the CRC must catch it.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::Frame(_))
        ));
        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice()).expect("clean eof").is_none());
    }

    #[test]
    fn stats_and_outcome_round_trip() {
        let stats = RemoteStats {
            terms_ingested: 10,
            classes_created: 4,
            merges_confirmed: 6,
            num_classes: 4,
            num_terms: 10,
            wal_records: Some(7),
            health_code: 2,
            health_reason: "disk full".to_owned(),
            recovery: Some((3, false)),
            obs_json: "{}".to_owned(),
            ..RemoteStats::default()
        };
        let mut bytes = Vec::new();
        put_stats(&mut bytes, &stats);
        assert_eq!(take_stats(&mut bytes.as_slice()).expect("decodes"), stats);

        let outcome = RemoteOutcome {
            term: 0x0002_0000_0000_0009,
            class: 0xDEAD_BEEF_0000_0001,
            fresh: true,
            subs_indexed: 5,
            subs_merged: 2,
            subs_skipped_min_nodes: 1,
        };
        let mut bytes = Vec::new();
        put_outcome(&mut bytes, &outcome);
        assert_eq!(bytes.len(), 41, "the spec's fixed record size");
        assert_eq!(
            take_outcome(&mut bytes.as_slice()).expect("decodes"),
            outcome
        );
    }

    #[test]
    fn update_request_round_trips() {
        let mut arena = ExprArena::new();
        let patch = parse(&mut arena, "v * 4").expect("parses");
        let mut bytes = Vec::new();
        put_update(&mut bytes, 0x0001_0000_0000_0002, &[0, 1], &arena, patch);
        let mut input = bytes.as_slice();
        let mut dst = ExprArena::new();
        let (term, path, root) = take_update(&mut input, &mut dst).expect("decodes");
        assert!(input.is_empty());
        assert_eq!(term, 0x0001_0000_0000_0002);
        assert_eq!(path, vec![0, 1]);
        assert!(lambda_lang::alpha_eq(&arena, patch, &dst, root));
    }

    /// `docs/PROTOCOL.md` is the authoritative byte-level description of
    /// this protocol; this test fails if the compiled constants drift
    /// from what the document claims (same pattern as the persistence
    /// spec-grep test in `alpha-store`).
    #[test]
    fn spec_documents_the_compiled_constants() {
        let spec = include_str!("../../../docs/PROTOCOL.md");
        let magic = std::str::from_utf8(&PROTOCOL_MAGIC).expect("ascii magic");
        for needle in [
            format!("`\"{magic}\"`"),
            format!("version: **{PROTOCOL_VERSION}**"),
            format!("{} MiB", MAX_FRAME_LEN / (1024 * 1024)),
        ] {
            assert!(
                spec.contains(&needle),
                "docs/PROTOCOL.md does not mention {needle:?} — update the spec \
                 (or this test) so document and code agree"
            );
        }
        for (name, code) in [
            ("OP_INSERT", OP_INSERT),
            ("OP_INSERT_BATCH", OP_INSERT_BATCH),
            ("OP_BATCH_CHUNK", OP_BATCH_CHUNK),
            ("OP_BATCH_END", OP_BATCH_END),
            ("OP_LOOKUP", OP_LOOKUP),
            ("OP_CONTAINS", OP_CONTAINS),
            ("OP_CONTAINS_BATCH", OP_CONTAINS_BATCH),
            ("OP_STATS", OP_STATS),
            ("OP_METRICS_PROMETHEUS", OP_METRICS_PROMETHEUS),
            ("OP_CHECKPOINT", OP_CHECKPOINT),
            ("OP_SHUTDOWN", OP_SHUTDOWN),
            ("OP_UPDATE", OP_UPDATE),
            ("RESP_OK", RESP_OK),
            ("RESP_CHUNK", RESP_CHUNK),
            ("RESP_END", RESP_END),
            ("ERR_MALFORMED", ERR_MALFORMED),
            ("ERR_UNSUPPORTED_VERSION", ERR_UNSUPPORTED_VERSION),
            ("ERR_BAD_OP", ERR_BAD_OP),
            ("ERR_TERM", ERR_TERM),
            ("ERR_READ_ONLY", ERR_READ_ONLY),
            ("ERR_SHUTTING_DOWN", ERR_SHUTTING_DOWN),
            ("ERR_INVALID_REWRITE", ERR_INVALID_REWRITE),
            ("ERR_PERSIST_IO", ERR_PERSIST_IO),
            ("ERR_PERSIST_CORRUPT", ERR_PERSIST_CORRUPT),
            ("ERR_PERSIST_MISMATCH", ERR_PERSIST_MISMATCH),
            ("ERR_PERSIST_LOCKED", ERR_PERSIST_LOCKED),
            ("ERR_PERSIST_WAL", ERR_PERSIST_WAL),
            ("ERR_PERSIST_SNAPSHOT", ERR_PERSIST_SNAPSHOT),
        ] {
            let row = format!("`{name}` | `{code:#04X}`");
            assert!(
                spec.contains(&row),
                "docs/PROTOCOL.md is missing the code-table row {row:?}"
            );
        }
    }
}
