//! Graph (de)serialization.
//!
//! Two formats:
//!
//! * **Binary** — a compact little-endian framing of the CSR arrays,
//!   suitable for caching generated R-MAT instances between benchmark
//!   runs (regenerating SCALE-23 takes longer than reloading it).
//! * **Text edge list** — `u v` per line, the lingua franca of graph tools,
//!   used by the examples to ingest user graphs.

use crate::{Csr, EdgeList, VertexId, NO_PARENT};
use std::io::{self, BufRead, Write};

/// Magic tag guarding the binary format.
const MAGIC: u32 = 0x5842_4653; // "XBFS"
/// Format version; bump when the layout changes.
const VERSION: u32 = 1;

/// Errors produced when decoding a binary graph.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared contents.
    Truncated,
    /// Magic tag mismatch — not an xbfs graph blob.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The decoded arrays do not form a valid CSR.
    Invalid,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic tag"),
            DecodeError::BadVersion(v) => write!(f, "unknown version {v}"),
            DecodeError::Invalid => write!(f, "arrays do not form a valid CSR"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian cursor over a byte slice; every read is bounds-checked
/// so truncated or hostile input surfaces as [`DecodeError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + N)
            .ok_or(DecodeError::Truncated)?;
        self.pos += N;
        Ok(chunk.try_into().expect("slice of length N"))
    }

    fn u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Encode a CSR into the compact binary format.
pub fn encode_csr(csr: &Csr) -> Vec<u8> {
    let offsets = csr.row_offsets();
    let columns = csr.column_indices();
    let mut buf = Vec::with_capacity(24 + offsets.len() * 8 + columns.len() * 4);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&csr.num_vertices().to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // reserved / alignment
    buf.extend_from_slice(&(columns.len() as u64).to_le_bytes());
    for &o in offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    for &c in columns {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Decode a CSR from the binary format.
pub fn decode_csr(buf: impl AsRef<[u8]>) -> Result<Csr, DecodeError> {
    let mut r = Reader {
        bytes: buf.as_ref(),
        pos: 0,
    };
    if r.bytes.len() < 24 {
        return Err(DecodeError::Truncated);
    }
    if r.u32_le()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32_le()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let n = r.u32_le()?;
    let _reserved = r.u32_le()?;
    let m = r.u64_le()?;
    let offsets_len = n as u64 + 1;
    // Check the declared sizes against what is actually present before
    // allocating, so a hostile header cannot request a huge buffer.
    let body = offsets_len
        .checked_mul(8)
        .and_then(|o| m.checked_mul(4).map(|c| (o, c)))
        .and_then(|(o, c)| o.checked_add(c))
        .ok_or(DecodeError::Truncated)?;
    if (r.remaining() as u64) < body {
        return Err(DecodeError::Truncated);
    }
    let mut offsets = Vec::with_capacity(offsets_len as usize);
    for _ in 0..offsets_len {
        offsets.push(r.u64_le()?);
    }
    let mut columns = Vec::with_capacity(m as usize);
    for _ in 0..m {
        columns.push(r.u32_le()?);
    }
    Csr::from_parts(n, offsets, columns).ok_or(DecodeError::Invalid)
}

/// Write `src dst` per line.
pub fn write_edge_list(el: &EdgeList, mut w: impl Write) -> io::Result<()> {
    for (s, d) in el.iter() {
        writeln!(w, "{s} {d}")?;
    }
    Ok(())
}

/// Read a whitespace-separated edge list. Lines starting with `#` or `%`
/// are comments. The vertex count is `max endpoint + 1` unless a larger
/// `min_vertices` is supplied. An endpoint equal to [`NO_PARENT`], the id
/// reserved for "no parent", is `InvalidData` naming its line.
pub fn read_edge_list(r: impl BufRead, min_vertices: VertexId) -> io::Result<EdgeList> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_v: VertexId = 0;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<VertexId> {
            s.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing endpoint"))?
                .parse::<VertexId>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        if s == NO_PARENT || d == NO_PARENT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: vertex id {NO_PARENT} is reserved for NO_PARENT",
                    lineno + 1
                ),
            ));
        }
        max_v = max_v.max(s).max(d);
        edges.push((s, d));
    }
    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_v + 1).max(min_vertices)
    };
    Ok(EdgeList::from_edges(n, edges).expect("endpoints bounded by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn binary_roundtrip() {
        let g = crate::rmat::rmat_csr(8, 8);
        let bytes = encode_csr(&g);
        let back = decode_csr(bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let g = gen::path(0);
        assert_eq!(decode_csr(encode_csr(&g)).unwrap(), g);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_csr(&b"hello"[..]), Err(DecodeError::Truncated));
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_csr(buf), Err(DecodeError::BadMagic));
    }

    #[test]
    fn decode_rejects_overflowing_declared_sizes() {
        // Header declares u64::MAX edges; size math must not overflow
        // into a small allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_csr(buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let g = gen::path(3);
        let bytes = encode_csr(&g);
        let mut v = bytes.to_vec();
        v[4] = 99;
        assert_eq!(decode_csr(&v[..]), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let g = gen::path(10);
        let bytes = encode_csr(&g);
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(decode_csr(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn text_roundtrip() {
        let mut el = EdgeList::new(5);
        el.push(0, 4);
        el.push(2, 3);
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], 0).unwrap();
        assert_eq!(back.as_slice(), el.as_slice());
        assert_eq!(back.num_vertices(), 5);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let text = "# comment\n\n% other comment\n1 2\n";
        let el = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(el.as_slice(), &[(1, 2)]);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn text_min_vertices_expands_id_space() {
        let el = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn text_rejects_malformed() {
        assert!(read_edge_list("1\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("a b\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn text_rejects_the_reserved_no_parent_id() {
        for text in ["0 4294967295\n", "# c\n0 1\n4294967295 2\n"] {
            let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let line = text.lines().count();
            assert!(err.to_string().contains(&format!("line {line}:")), "{err}");
        }
        let el = read_edge_list("0 4294967294\n".as_bytes(), 0).unwrap();
        assert_eq!(el.num_vertices(), NO_PARENT);
    }
}
