//! The result line each binary prints (hand-rolled JSON: no external crates)
//! and the host facts recorded beside it.

use std::fmt::Write as _;

/// A JSON object under construction. Numbers are written with Rust's
/// shortest round-trip formatting, i.e. with every digit that was measured.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "{}:", quote(key));
    }

    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn boolean(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn text(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        self.body.push_str(&quote(value));
        self
    }

    /// Nest an already rendered JSON value.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        self.key(key);
        self.body.push_str(json);
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Render a JSON array from already rendered elements.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_nest_and_escape() {
        let inner = Obj::new().num("p50_ms", 1.25).int("n", 3).finish();
        let doc = Obj::new()
            .text("name", "a\"b")
            .boolean("ok", true)
            .raw("k", &inner)
            .raw("l", &array(["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(
            doc,
            r#"{"name":"a\"b","ok":true,"k":{"p50_ms":1.25,"n":3},"l":[1,2]}"#
        );
    }
}
