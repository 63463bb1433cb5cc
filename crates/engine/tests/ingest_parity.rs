//! One row format across every ingest path.
//!
//! A single table of CSV lines — comments, blank lines, a CRLF ending,
//! padded fields, `nan`, `inf`, an empty field, an unparsable token and an
//! unterminated last line — goes through every line-oriented ingest path:
//! the file, followed-file, TCP and HTTP (`Content-Length` and chunked)
//! origins of `LineSource`, the backfill `PartitionWorker` and
//! `parse_csv_line`. Each must yield the same rows, masks and sequence
//! numbers.

use spca_core::PcaConfig;
use spca_engine::PartitionWorker;
use spca_spectra::io::parse_csv_line;
use spca_streams::operator::testing::with_ctx;
use spca_streams::ops::LineSource;
use spca_streams::{DataTuple, Operator, SourceState};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

const TABLE: &str = "# survey extract\n\n 1.5 , -2 ,3\r\n4,nan,inf\n,7,x\n   \n8e-3,9,10";

/// `(seq, values, mask)`, with a complete row's mask spelled out as all
/// `true` so every path compares alike.
type Row = (u64, Vec<f64>, Vec<bool>);

fn expected() -> Vec<Row> {
    vec![
        (0, vec![1.5, -2.0, 3.0], vec![true; 3]),
        (1, vec![4.0, 0.0, 0.0], vec![true, false, false]),
        (2, vec![0.0, 7.0, 0.0], vec![false, true, false]),
        (3, vec![8e-3, 9.0, 10.0], vec![true; 3]),
    ]
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spca_parity_{}_{name}.csv", std::process::id()));
    p
}

fn rows_of(tuples: &[DataTuple]) -> Vec<Row> {
    tuples
        .iter()
        .map(|t| {
            let mask = match &t.mask {
                Some(m) => {
                    assert!(m.contains(&false), "a masked tuple must carry a gap");
                    m.to_vec()
                }
                None => vec![true; t.values.len()],
            };
            (t.seq, t.values.to_vec(), mask)
        })
        .collect()
}

/// Drives `src` until it reports `until`, returning what it emitted.
fn drain(src: &mut LineSource, until: SourceState) -> Vec<DataTuple> {
    with_ctx(1, |ctx| {
        let mut polls = 0;
        while src.drive(ctx) != until {
            polls += 1;
            assert!(polls < 1000, "source never reached {until:?}");
        }
    })
    .data_at(0)
}

/// Answers one HTTP request with `head` followed by `body`.
fn serve_once(head: String, body: Vec<u8>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&body);
        }
    });
    format!("http://{addr}/table.csv")
}

#[test]
fn every_ingest_path_reads_the_table_alike() {
    let want = expected();
    let mut paths: Vec<(&str, Vec<Row>)> = Vec::new();

    let parsed = TABLE.lines().filter_map(parse_csv_line);
    paths.push((
        "parse_csv_line",
        (0..).zip(parsed).map(|(s, (v, m))| (s, v, m)).collect(),
    ));

    let mut worker = PartitionWorker::new(PcaConfig::new(3, 1).with_extra(1));
    let mut fed = Vec::new();
    for line in TABLE.lines() {
        if worker.feed_line(line).unwrap() {
            let (v, m) = worker.row();
            fed.push((fed.len() as u64, v.to_vec(), m.to_vec()));
        }
    }
    paths.push(("PartitionWorker::feed_line", fed));

    let file = tmp("file");
    std::fs::write(&file, TABLE).unwrap();
    let got = drain(&mut LineSource::new(&file), SourceState::Done);
    paths.push(("file", rows_of(&got)));

    // A follower waits at end of file for the writer to finish its last
    // line, so the unterminated row arrives once its `\n` is appended.
    let followed = tmp("follow");
    std::fs::write(&followed, TABLE).unwrap();
    let mut follow = LineSource::follow(&followed);
    let mut got = drain(&mut follow, SourceState::Idle);
    assert_eq!(got.len(), 3, "the unterminated line must wait");
    std::fs::OpenOptions::new()
        .append(true)
        .open(&followed)
        .unwrap()
        .write_all(b"\n")
        .unwrap();
    got.extend(drain(&mut follow, SourceState::Idle));
    paths.push(("follow", rows_of(&got)));

    let mut tcp = LineSource::listen("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(TABLE.as_bytes()).unwrap();
    });
    let got = drain(&mut tcp, SourceState::Done);
    peer.join().unwrap();
    paths.push(("tcp", rows_of(&got)));

    let url = serve_once(
        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", TABLE.len()),
        TABLE.as_bytes().to_vec(),
    );
    let got = drain(&mut LineSource::get(&url).unwrap(), SourceState::Done);
    paths.push(("http content-length", rows_of(&got)));

    // Five-byte chunks split rows, fields and the CRLF across chunks.
    let mut chunked = Vec::new();
    for chunk in TABLE.as_bytes().chunks(5) {
        write!(chunked, "{:x}\r\n", chunk.len()).unwrap();
        chunked.extend_from_slice(chunk);
        chunked.extend_from_slice(b"\r\n");
    }
    chunked.extend_from_slice(b"0\r\n\r\n");
    let url = serve_once(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_string(),
        chunked,
    );
    let got = drain(&mut LineSource::get(&url).unwrap(), SourceState::Done);
    paths.push(("http chunked", rows_of(&got)));

    for (name, rows) in &paths {
        assert_eq!(rows, &want, "{name} disagrees with the table");
    }
    std::fs::remove_file(file).ok();
    std::fs::remove_file(followed).ok();
}
