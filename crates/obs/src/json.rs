//! Minimal JSON value model and renderer.
//!
//! The workspace carries no external dependencies, so snapshot serialisation
//! is hand-rolled. Numbers are kept as their text so 64-bit integer values
//! render exactly (no detour through `f64`).

use std::fmt::Write as _;

/// A JSON value to render.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number's canonical text (e.g. `"42"`, `"-1"`, `"0.5"`).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered key/value list (insertion order is preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn from_u64(v: u64) -> Self {
        Json::Num(v.to_string())
    }

    pub(crate) fn from_i64(v: i64) -> Self {
        Json::Num(v.to_string())
    }

    /// Render to compact JSON text.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_compactly_and_exactly() {
        let v = Json::Obj(vec![
            ("a".into(), Json::from_u64(u64::MAX)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c".into(), Json::Str("he said \"hi\"\n\t\\\u{1}".into())),
            ("d".into(), Json::from_i64(-42)),
            ("e".into(), Json::Obj(vec![])),
            ("f".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":18446744073709551615,"b":[null,true],"c":"he said \"hi\"\n\t\\\u0001","d":-42,"e":{},"f":[]}"#
        );
    }
}
