//! Hand-rolled JSON output (the workspace carries no serialisation
//! dependency), and the naming rule every workload and metric obeys.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// A whole number, written without a fraction.
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Two-space indented, one array element or object member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest representation that round-trips: every digit as
            // measured. JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.render(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    Json::str(key).render(out, None, 0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// The naming rule for workloads and metrics: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A minimal recursive-descent reader, for the tests only: it proves the
/// writer's output parses and lets a test read the committed
/// `BENCHMARK.json` back.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Json, String> {
    struct P<'a> {
        s: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }
        fn eat(&mut self, lit: &str) -> Result<(), String> {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("expected `{lit}` at byte {}", self.i))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat("\"")?;
            let mut out = Vec::new();
            loop {
                match *self.s.get(self.i).ok_or("unterminated string")? {
                    b'"' => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    b'\\' => {
                        let esc = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                        self.i += 2;
                        match esc {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'"' | b'\\' | b'/' => out.push(esc),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let c = char::from_u32(cp).ok_or("bad \\u escape")?;
                                out.extend(c.to_string().as_bytes());
                                self.i += 4;
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    b => {
                        out.push(b);
                        self.i += 1;
                    }
                }
            }
        }
        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            let v = match *self.s.get(self.i).ok_or("unexpected end")? {
                b'n' => self.eat("null").map(|()| Json::Null)?,
                b't' => self.eat("true").map(|()| Json::Bool(true))?,
                b'f' => self.eat("false").map(|()| Json::Bool(false))?,
                b'"' => Json::Str(self.string()?),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                    } else {
                        loop {
                            items.push(self.value()?);
                            self.ws();
                            if self.eat(",").is_err() {
                                self.eat("]")?;
                                break;
                            }
                        }
                    }
                    Json::Arr(items)
                }
                b'{' => {
                    self.i += 1;
                    let mut members = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                    } else {
                        loop {
                            self.ws();
                            let key = self.string()?;
                            self.ws();
                            self.eat(":")?;
                            members.push((key, self.value()?));
                            self.ws();
                            if self.eat(",").is_err() {
                                self.eat("}")?;
                                break;
                            }
                        }
                    }
                    Json::Obj(members)
                }
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|b| b"+-.eE0123456789".contains(b))
                    {
                        self.i += 1;
                    }
                    let num = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    let parsed = if num.bytes().all(|b| b.is_ascii_digit()) {
                        num.parse().ok().map(Json::Int)
                    } else {
                        num.parse().ok().map(Json::Num)
                    };
                    parsed.ok_or_else(|| format!("bad number `{num}` at byte {start}"))?
                }
            };
            Ok(v)
        }
    }
    let mut p = P {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.i))
    }
}

#[cfg(test)]
impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back_in_both_layouts() {
        let doc = Json::obj([
            ("plain", Json::Num(12.267)),
            ("tiny", Json::Num(5e-8)),
            ("whole", Json::Num(600.0)),
            ("count", Json::Int(600)),
            ("nan", Json::Num(f64::NAN)),
            ("text", Json::str("tab\t quote\" slash\\ nl\n bell\u{7} µs")),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("empty", Json::obj::<&str>([])),
            ("none", Json::Arr(vec![])),
        ]);
        let mut expect = doc.clone();
        if let Json::Obj(m) = &mut expect {
            m[4].1 = Json::Null; // NaN is written as null
        }
        for text in [doc.compact(), doc.pretty()] {
            assert_eq!(parse(&text).as_ref(), Ok(&expect), "{text}");
        }
        assert!(!doc.compact().contains('\n'));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1_f64 + 0.2; // 0.30000000000000004
        let text = Json::Num(x).compact();
        assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn name_rule_matches_the_contract() {
        for good in [
            "steps_per_s",
            "md.step_ms_p98",
            "mp.allreduce.us_p9",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
