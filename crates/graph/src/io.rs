//! Text I/O in the classic `t/v/e` transaction-graph format.
//!
//! This is the format the AIDS/NCI graph-query datasets ship in and the one
//! gSpan-family tooling reads:
//!
//! ```text
//! t # 0
//! v 0 2
//! v 1 0
//! e 0 1
//! t # 1
//! ...
//! ```
//!
//! * `t # <id>` starts a new graph (the id is informational; graphs are
//!   renumbered densely on load);
//! * `v <vid> <label>` declares a vertex — vids must be dense and in order;
//! * `e <u> <v>` declares an undirected edge;
//! * blank lines and `#`-comment lines are skipped.

use crate::{Graph, GraphBuilder, GraphError, Label, Result};
use std::io::{Read, Write};
use std::path::Path;

/// Parse a whole dataset from a reader: the input is read whole and handed
/// to [`parse_dataset`], the one parser. Bytes that are not UTF-8 are
/// reported on the line they occur in.
pub fn read_dataset<R: Read>(mut reader: R) -> Result<Vec<Graph>> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| GraphError::Parse { line: 0, msg: e.to_string() })?;
    match String::from_utf8(bytes) {
        Ok(text) => parse_dataset(&text),
        Err(e) => {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            let line = 1 + valid.iter().filter(|&&b| b == b'\n').count();
            Err(GraphError::Parse { line, msg: e.utf8_error().to_string() })
        }
    }
}

/// Parse a dataset from an in-memory string, line by line over borrowed
/// slices (no per-line allocation) — the server decodes every `/query` body
/// through here.
pub fn parse_dataset(text: &str) -> Result<Vec<Graph>> {
    let mut graphs = Vec::new();
    let mut current: Option<GraphBuilder> = None;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("t") => {
                if let Some(b) = current.take() {
                    graphs.push(b.build());
                }
                current = Some(GraphBuilder::new());
            }
            Some("v") => {
                let b = current.as_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "vertex before any 't' line".into(),
                })?;
                let vid: u32 = parse_field(parts.next(), lineno, "vertex id")?;
                let label: u32 = parse_field(parts.next(), lineno, "vertex label")?;
                if vid as usize != b.vertex_count() {
                    return Err(GraphError::Parse {
                        line: lineno,
                        msg: format!(
                            "vertex ids must be dense and in order (expected {}, got {vid})",
                            b.vertex_count()
                        ),
                    });
                }
                b.add_vertex(Label(label));
            }
            Some("e") => {
                let b = current.as_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "edge before any 't' line".into(),
                })?;
                let u: u32 = parse_field(parts.next(), lineno, "edge endpoint")?;
                let v: u32 = parse_field(parts.next(), lineno, "edge endpoint")?;
                // Some dataset dumps carry an edge label as a third field; the
                // model ignores it (vertex-labelled graphs), per the paper.
                b.add_edge(u, v)
                    .map_err(|e| GraphError::Parse { line: lineno, msg: e.to_string() })?;
            }
            Some(tok) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("unknown record type {tok:?}"),
                })
            }
            None => unreachable!("empty lines are filtered above"),
        }
    }
    if let Some(b) = current.take() {
        graphs.push(b.build());
    }
    Ok(graphs)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, line: usize, what: &str) -> Result<T> {
    let raw = field.ok_or_else(|| GraphError::Parse { line, msg: format!("missing {what}") })?;
    raw.parse().map_err(|_| GraphError::Parse { line, msg: format!("invalid {what}: {raw:?}") })
}

/// Load a dataset from a file path.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Vec<Graph>> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| GraphError::Parse {
        line: 0,
        msg: format!("cannot open {}: {e}", path.as_ref().display()),
    })?;
    read_dataset(file)
}

/// Write a dataset in `t/v/e` format.
pub fn write_dataset<W: Write>(mut w: W, graphs: &[Graph]) -> std::io::Result<()> {
    for (i, g) in graphs.iter().enumerate() {
        writeln!(w, "t # {i}")?;
        for v in g.vertices() {
            writeln!(w, "v {v} {}", g.label(v).0)?;
        }
        for (u, v) in g.edges() {
            writeln!(w, "e {u} {v}")?;
        }
    }
    Ok(())
}

/// Serialize a dataset to a string.
pub fn dataset_to_string(graphs: &[Graph]) -> String {
    let mut buf = Vec::new();
    write_dataset(&mut buf, graphs).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("format writes only ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
t # 0
v 0 2
v 1 0
v 2 0
e 0 1
e 1 2

t # 1
v 0 1
";

    #[test]
    fn parse_two_graphs() {
        let gs = parse_dataset(SAMPLE).unwrap();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].vertex_count(), 3);
        assert_eq!(gs[0].edge_count(), 2);
        assert_eq!(gs[0].label(0), Label(2));
        assert_eq!(gs[1].vertex_count(), 1);
        assert_eq!(gs[1].edge_count(), 0);
    }

    #[test]
    fn roundtrip() {
        let gs = parse_dataset(SAMPLE).unwrap();
        let text = dataset_to_string(&gs);
        let gs2 = parse_dataset(&text).unwrap();
        assert_eq!(gs, gs2);
    }

    #[test]
    fn error_on_sparse_vertex_ids() {
        let err = parse_dataset("t # 0\nv 1 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn error_on_edge_before_t() {
        let err = parse_dataset("e 0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn error_on_unknown_record() {
        let err = parse_dataset("t # 0\nx 1 2\n").unwrap_err();
        assert!(err.to_string().contains("unknown record type"));
    }

    #[test]
    fn error_on_bad_numbers() {
        let err = parse_dataset("t # 0\nv 0 banana\n").unwrap_err();
        assert!(err.to_string().contains("invalid vertex label"));
        let err = parse_dataset("t # 0\nv 0 1\ne 0\n").unwrap_err();
        assert!(err.to_string().contains("missing edge endpoint"));
    }

    #[test]
    fn duplicate_edge_reported_with_line() {
        let err = parse_dataset("t # 0\nv 0 0\nv 1 0\ne 0 1\ne 1 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err}");
    }

    #[test]
    fn reader_and_str_share_one_parser() {
        assert_eq!(read_dataset(SAMPLE.as_bytes()).unwrap(), parse_dataset(SAMPLE).unwrap());
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(read_dataset(crlf.as_bytes()).unwrap(), parse_dataset(SAMPLE).unwrap());
        let err = read_dataset(&b"t # 0\nv 0 \xff\n"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn empty_input_is_empty_dataset() {
        assert!(parse_dataset("").unwrap().is_empty());
        assert!(parse_dataset("\n# only comments\n").unwrap().is_empty());
    }
}
