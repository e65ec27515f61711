//! Byte-stable JSON emission for the `BENCH_*.json` reports.
//!
//! Every harness binary writes a machine-readable report at the repository
//! root, and CI diffs those files across runs — so the bytes must be a
//! pure function of the measured values. This module replaces the
//! hand-rolled `writeln!` serializers with one writer that guarantees:
//!
//! * **insertion-ordered keys** — the tree preserves the order fields are
//!   added in (no hash-map iteration order to leak through);
//! * **caller-fixed number formatting** — floats are rendered through
//!   [`Value::fixed`] with an explicit decimal count, never `{}`/shortest
//!   formatting;
//! * **one layout** — two-space indent, arrays one element per line with
//!   row objects compact, and a trailing newline;
//! * **a `schema` + `version` header** — always the first two keys, so
//!   consumers can dispatch on shape before reading anything else.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`: a field whose measurement does not apply (the report says
    /// why in a sibling field).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, preformatted by the caller (see [`Value::fixed`]).
    Num(String),
    /// A string (escaped at render time).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A float rendered with exactly `decimals` fractional digits.
    ///
    /// Fixing the precision at the call site is what keeps reports
    /// byte-stable: the value in the file is the *rounded* measurement,
    /// identical however the bits happen to print elsewhere.
    #[must_use]
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}"))
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                let pad = "  ".repeat(indent + 1);
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    // Rows (objects inside arrays) render compactly: one
                    // line per row keeps grid-shaped reports diffable.
                    match item {
                        Value::Obj(_) => item.render_compact(out),
                        other => other.render_into(out, indent + 1),
                    }
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                let pad = "  ".repeat(indent + 1);
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}\"{}\": ", escape(k));
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    fn render_compact(&self, out: &mut String) {
        match self {
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render_compact(out);
                }
                out.push('}');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_compact(out);
                }
                out.push(']');
            }
            other => other.render_into(out, 0),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl From<Obj> for Value {
    fn from(o: Obj) -> Value {
        Value::Obj(o.fields)
    }
}

/// A builder for insertion-ordered objects.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, Value)>,
}

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `key: value` (keys render in the order they are added).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Obj {
        self.fields.push((key.to_owned(), value.into()));
        self
    }
}

/// A top-level `BENCH_*.json` report with a `schema`/`version` header.
#[derive(Debug, Clone)]
pub struct JsonReport {
    root: Obj,
}

impl JsonReport {
    /// A report whose first two keys are `"schema": schema` and
    /// `"version": version`.
    #[must_use]
    pub fn new(schema: &str, version: u32) -> JsonReport {
        JsonReport {
            root: Obj::new().field("schema", schema).field("version", version),
        }
    }

    /// Appends a top-level field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> JsonReport {
        self.root = self.root.field(key, value);
        self
    }

    /// Renders the report: two-space indent, trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        Value::Obj(self.root.fields.clone()).render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders and writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_comes_first_and_order_is_preserved() {
        let r = JsonReport::new("uparc-bench-test", 1)
            .field("zeta", 1u64)
            .field("alpha", 2u64);
        let s = r.render();
        let schema_at = s.find("\"schema\"").unwrap();
        let version_at = s.find("\"version\"").unwrap();
        let zeta_at = s.find("\"zeta\"").unwrap();
        let alpha_at = s.find("\"alpha\"").unwrap();
        assert!(schema_at < version_at && version_at < zeta_at && zeta_at < alpha_at);
        assert!(s.ends_with("}\n"), "trailing newline");
    }

    #[test]
    fn rows_render_compact_and_nested_objects_indent() {
        let r = JsonReport::new("s", 1)
            .field(
                "rows",
                vec![
                    Obj::new()
                        .field("a", 1u64)
                        .field("b", Value::fixed(0.5, 2))
                        .into(),
                    Obj::new()
                        .field("a", 2u64)
                        .field("b", Value::fixed(1.0, 2))
                        .into(),
                ],
            )
            .field("nested", Obj::new().field("x", true));
        let s = r.render();
        assert!(s.contains("    {\"a\": 1, \"b\": 0.50},\n"), "{s}");
        assert!(s.contains("    {\"a\": 2, \"b\": 1.00}\n"), "{s}");
        assert!(s.contains("\"nested\": {\n    \"x\": true\n  }"), "{s}");
    }

    #[test]
    fn fixed_pins_decimals_and_strings_escape() {
        assert!(matches!(Value::fixed(1.23456, 2), Value::Num(n) if n == "1.23"));
        assert!(matches!(Value::fixed(7.0, 0), Value::Num(n) if n == "7"));
        let r = JsonReport::new("s", 1).field("msg", "a\"b\\c\nd");
        assert!(r.render().contains(r#""msg": "a\"b\\c\nd""#));
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            JsonReport::new("s", 2)
                .field("rows", vec![Obj::new().field("k", 9u64).into()])
                .field("f", Value::fixed(2.5, 3))
                .render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn empty_containers_render_inline() {
        let r = JsonReport::new("s", 1)
            .field("arr", Vec::<Value>::new())
            .field("obj", Obj::new());
        let s = r.render();
        assert!(s.contains("\"arr\": []"));
        assert!(s.contains("\"obj\": {}"));
    }
}
