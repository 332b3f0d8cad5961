//! A JSON value and its serialiser — all the benchmark needs to print
//! its result line and persist `results.json` without a dependency.

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialises on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Every digit as measured: Rust prints the shortest decimal
            // that reads back as the same f64. Whole numbers print
            // without a fraction. Non-finite values have no JSON form;
            // callers check for them before building a value.
            Json::Num(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use zlm_bench::diff::{flatten, Leaf};

    #[test]
    fn renders_what_the_repo_parser_reads_back() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(12.0)),
            ("wall", Json::Num(0.1 + 0.2)),
            ("note", Json::str("a \"quoted\"\\ line\nbreak")),
            ("list", Json::Arr(vec![Json::Num(1.5), Json::Num(-2.0)])),
        ]);
        let text = value.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(
            text.contains("\"attempted\": 12,"),
            "whole numbers stay whole: {text}"
        );
        let leaves = flatten(&text).expect("parses");
        let get = |path: &str| {
            leaves
                .iter()
                .find(|(p, _)| p == path)
                .map(|(_, l)| l.clone())
        };
        assert_eq!(get("correct"), Some(Leaf::Bool(true)));
        assert_eq!(get("wall"), Some(Leaf::Num(0.1 + 0.2)));
        assert_eq!(
            get("note"),
            Some(Leaf::Str("a \"quoted\"\\ line\nbreak".into()))
        );
        assert_eq!(get("list[1]"), Some(Leaf::Num(-2.0)));
    }
}
