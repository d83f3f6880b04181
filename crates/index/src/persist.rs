//! Tree persistence: a simple page-image binary format.
//!
//! The page store already models a disk-resident tree, so persistence is a
//! straight dump of the pages. The format is hand-rolled (fixed-width
//! little-endian fields, one record per page) — no serialization framework,
//! no versioned schema migration, just what an experiment needs to build a
//! paper-scale index once and reuse it across runs.
//!
//! ```text
//! magic "CONNRT01" | max_entries u32 | min_entries u32 | root u32
//! | len u64 | num_pages u32
//! then per page: level u32 | entry_count u32 | entries…
//! entry: tag u8 (0 = child node, 1 = item)
//!   node: mbr (4 × f64) | page u32
//!   item: T::encode (fixed width)
//! ```

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use conn_geom::{Point, Rect};

use crate::node::{Mbr, Node, Slot};
use crate::tree::RStarTree;

const MAGIC: &[u8; 8] = b"CONNRT01";

/// Fixed-width binary encoding for tree items.
pub trait PersistItem: Sized {
    /// Encoded width in bytes (fixed per type).
    const ENCODED_SIZE: usize;
    /// Appends exactly [`Self::ENCODED_SIZE`] bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes from a [`Self::ENCODED_SIZE`]-byte slice.
    fn decode(bytes: &[u8]) -> io::Result<Self>;
}

impl PersistItem for Point {
    const ENCODED_SIZE: usize = 16;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.x.to_le_bytes());
        out.extend_from_slice(&self.y.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> io::Result<Self> {
        Ok(Point::new(read_f64(bytes, 0)?, read_f64(bytes, 8)?))
    }
}

impl PersistItem for Rect {
    const ENCODED_SIZE: usize = 32;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.min_x.to_le_bytes());
        out.extend_from_slice(&self.min_y.to_le_bytes());
        out.extend_from_slice(&self.max_x.to_le_bytes());
        out.extend_from_slice(&self.max_y.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> io::Result<Self> {
        Ok(Rect {
            min_x: read_f64(bytes, 0)?,
            min_y: read_f64(bytes, 8)?,
            max_x: read_f64(bytes, 16)?,
            max_y: read_f64(bytes, 24)?,
        })
    }
}

/// Reads a little-endian f64 at `offset`.
pub fn read_f64(bytes: &[u8], offset: usize) -> io::Result<f64> {
    let slice = bytes
        .get(offset..offset + 8)
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated f64"))?;
    #[expect(clippy::expect_used, reason = "get() above returned exactly 8 bytes")]
    let bytes: [u8; 8] = slice.try_into().expect("8 bytes");
    Ok(f64::from_le_bytes(bytes))
}

/// Reads a little-endian u32 at `offset`.
pub fn read_u32(bytes: &[u8], offset: usize) -> io::Result<u32> {
    let slice = bytes
        .get(offset..offset + 4)
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated u32"))?;
    #[expect(clippy::expect_used, reason = "get() above returned exactly 4 bytes")]
    let bytes: [u8; 4] = slice.try_into().expect("4 bytes");
    Ok(u32::from_le_bytes(bytes))
}

impl<T: Mbr + Clone + PersistItem> RStarTree<T> {
    /// Writes the tree's page image to `writer`.
    pub fn save<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = BufWriter::new(writer);
        w.write_all(MAGIC)?;
        w.write_all(&(self.max_entries() as u32).to_le_bytes())?;
        w.write_all(&(self.min_entries() as u32).to_le_bytes())?;
        w.write_all(&self.root_page().to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&(self.num_pages() as u32).to_le_bytes())?;
        let mut buf = Vec::new();
        for node in self.pages_raw() {
            buf.clear();
            buf.extend_from_slice(&node.level.to_le_bytes());
            buf.extend_from_slice(&(node.len() as u32).to_le_bytes());
            for (mbr, slot) in node.mbrs.iter().zip(&node.slots) {
                match slot {
                    Slot::Child(page) => {
                        buf.push(0);
                        buf.extend_from_slice(&mbr.min_x.to_le_bytes());
                        buf.extend_from_slice(&mbr.min_y.to_le_bytes());
                        buf.extend_from_slice(&mbr.max_x.to_le_bytes());
                        buf.extend_from_slice(&mbr.max_y.to_le_bytes());
                        buf.extend_from_slice(&page.to_le_bytes());
                    }
                    Slot::Item(item) => {
                        buf.push(1);
                        item.encode(&mut buf);
                    }
                }
            }
            w.write_all(&buf)?;
        }
        w.flush()
    }

    /// Saves to a file path.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.save(std::fs::File::create(path)?)
    }

    /// Reads a tree from `reader`.
    pub fn load<R: Read>(reader: R) -> io::Result<Self> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a conn-index tree file",
            ));
        }
        let max_entries = read_u32_from(&mut r)? as usize;
        let min_entries = read_u32_from(&mut r)? as usize;
        let root = read_u32_from(&mut r)?;
        let len = read_u64_from(&mut r)? as usize;
        let num_pages = read_u32_from(&mut r)? as usize;
        if max_entries < 4 || min_entries < 2 || min_entries > max_entries / 2 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad fanout"));
        }
        if (root as usize) >= num_pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "root out of range",
            ));
        }

        let mut pages = Vec::with_capacity(num_pages);
        for _ in 0..num_pages {
            let level = read_u32_from(&mut r)?;
            let count = read_u32_from(&mut r)? as usize;
            if count > max_entries + 1 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "overfull page"));
            }
            let mut node = Node::new(level);
            node.mbrs.reserve(count);
            node.slots.reserve(count);
            for _ in 0..count {
                let mut tag = [0u8; 1];
                r.read_exact(&mut tag)?;
                match tag[0] {
                    0 => {
                        let mut rec = [0u8; 36];
                        r.read_exact(&mut rec)?;
                        let mbr = Rect {
                            min_x: read_f64(&rec, 0)?,
                            min_y: read_f64(&rec, 8)?,
                            max_x: read_f64(&rec, 16)?,
                            max_y: read_f64(&rec, 24)?,
                        };
                        let page = read_u32(&rec, 32)?;
                        if (page as usize) >= num_pages {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "child page out of range",
                            ));
                        }
                        node.push(mbr, Slot::Child(page));
                    }
                    1 => {
                        let mut rec = vec![0u8; T::ENCODED_SIZE];
                        r.read_exact(&mut rec)?;
                        // the item's envelope is recomputed, not stored:
                        // the on-disk format stays CONNRT01
                        let item = T::decode(&rec)?;
                        node.push(item.mbr(), Slot::Item(item));
                    }
                    t => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad entry tag {t}"),
                        ))
                    }
                }
            }
            pages.push(node);
        }
        Ok(RStarTree::from_raw_parts(
            pages,
            root,
            max_entries,
            min_entries,
            len,
        ))
    }

    /// Loads from a file path.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::load(std::fs::File::open(path)?)
    }
}

fn read_u32_from<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64_from<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Segment;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 733.0) % 997.0, (i as f64 * 131.0) % 883.0))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        let items = pts(500);
        let tree = RStarTree::bulk_load_with_fanout(items, 16, 6);
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let loaded: RStarTree<Point> = RStarTree::load(&bytes[..]).unwrap();
        loaded.check_invariants().unwrap();
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.num_pages(), tree.num_pages());
        assert_eq!(loaded.height(), tree.height());
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(900.0, 800.0));
        let a: Vec<(Point, f64)> = tree.nearest_iter(q).take(40).collect();
        let b: Vec<(Point, f64)> = loaded.nearest_iter(q).take(40).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn roundtrip_rect_items_via_file() {
        let rects: Vec<Rect> = pts(200)
            .into_iter()
            .map(|p| Rect::new(p.x, p.y, p.x + 5.0, p.y + 2.0))
            .collect();
        let tree = RStarTree::bulk_load_with_fanout(rects, 12, 4);
        let path = std::env::temp_dir().join("conn_index_roundtrip.bin");
        tree.save_to_path(&path).unwrap();
        let loaded: RStarTree<Rect> = RStarTree::load_from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded.check_invariants().unwrap();
        assert_eq!(loaded.len(), 200);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let tree = RStarTree::bulk_load_with_fanout(pts(50), 8, 3);
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();

        let mut corrupted = bytes.clone();
        corrupted[0] = b'X';
        assert!(RStarTree::<Point>::load(&corrupted[..]).is_err());

        let truncated = &bytes[..bytes.len() / 2];
        assert!(RStarTree::<Point>::load(truncated).is_err());
    }

    #[test]
    fn loaded_tree_supports_mutation() {
        let tree = RStarTree::bulk_load_with_fanout(pts(120), 8, 3);
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let mut loaded: RStarTree<Point> = RStarTree::load(&bytes[..]).unwrap();
        loaded.insert(Point::new(42.0, 24.0));
        assert_eq!(loaded.len(), 121);
        loaded.check_invariants().unwrap();
        let removed = loaded.delete_by_mbr(&Rect::from_point(Point::new(42.0, 24.0)));
        assert!(removed.is_some());
        loaded.check_invariants().unwrap();
    }

    #[test]
    fn empty_tree_roundtrip() {
        let tree: RStarTree<Point> = RStarTree::with_fanout(8, 3);
        let mut bytes = Vec::new();
        tree.save(&mut bytes).unwrap();
        let loaded: RStarTree<Point> = RStarTree::load(&bytes[..]).unwrap();
        assert!(loaded.is_empty());
        assert!(loaded.nearest_iter(Point::new(0.0, 0.0)).next().is_none());
    }
}
