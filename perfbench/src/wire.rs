//! A blocking client connection speaking the server's JSON-line protocol.
//! Failures are returned, never panicked on: the caller counts them.

use ebc_serve::encode_update;
use ebc_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use streaming_bc::Update;

/// Why a request did not succeed.
#[derive(Debug)]
pub enum Fail {
    /// The server answered with a typed `ok: false` reply.
    Refused(String),
    /// A timeout, a connection error or an unreadable reply.
    Failed(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Refused(m) => write!(f, "refused: {m}"),
            Fail::Failed(m) => write!(f, "failed: {m}"),
        }
    }
}

pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// No single request of any workload comes near this.
const TIMEOUT: Duration = Duration::from_secs(60);

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, Fail> {
        let fail = |e: std::io::Error| Fail::Failed(format!("connect: {e}"));
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(fail)?;
        stream.set_nodelay(true).map_err(fail)?;
        stream.set_read_timeout(Some(TIMEOUT)).map_err(fail)?;
        stream.set_write_timeout(Some(TIMEOUT)).map_err(fail)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone().map_err(fail)?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request line and read its reply.
    pub fn request(&mut self, line: &str) -> Result<Value, Fail> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| Fail::Failed(format!("send: {e}")))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err(Fail::Failed("connection closed".into())),
            Ok(_) => {}
            Err(e) => return Err(Fail::Failed(format!("receive: {e}"))),
        }
        let v = json::parse(self.line.trim_end())
            .map_err(|e| Fail::Failed(format!("unreadable reply: {e}")))?;
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(v)
        } else {
            Err(Fail::Refused(self.line.trim_end().to_string()))
        }
    }

    /// `reduce_exact`: the partition-invariant scores `(vbc, ebc)`.
    pub fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>), Fail> {
        let v = self.request(r#"{"cmd":"reduce_exact"}"#)?;
        Ok((floats(&v, "vbc")?, floats(&v, "ebc")?))
    }

    /// `top_k` k=10: `(id, score)` in rank order.
    pub fn top_k(&mut self) -> Result<Vec<(u32, f64)>, Fail> {
        let v = self.request(r#"{"cmd":"top_k","k":10}"#)?;
        let bad = || Fail::Failed("malformed top_k reply".into());
        v.get("top")
            .and_then(Value::as_arr)
            .ok_or_else(bad)?
            .iter()
            .map(|e| {
                let pair = e.as_arr().filter(|p| p.len() == 2).ok_or_else(bad)?;
                let id = pair[0].as_u64().ok_or_else(bad)?;
                Ok((id as u32, pair[1].as_f64().ok_or_else(bad)?))
            })
            .collect()
    }
}

fn floats(v: &Value, key: &str) -> Result<Vec<f64>, Fail> {
    let bad = || Fail::Failed(format!("malformed {key} array"));
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(bad))
        .collect()
}

pub fn apply_line(batch: &[Update]) -> String {
    json::obj([
        ("cmd", Value::from("apply")),
        (
            "updates",
            Value::Arr(batch.iter().map(encode_update).collect()),
        ),
    ])
    .to_json()
}
