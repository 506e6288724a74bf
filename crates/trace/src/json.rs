//! The one JSON codec behind every artifact the workspace writes and
//! reads back (`BENCH_matrix.json`, `SERVE_summary.json`,
//! `TRACE_summary.jsonl`, `DEOPT_events.jsonl`, the event dumps).
//!
//! A row's declaration is its schema: [`record!`](crate::record) derives a
//! struct's `write`, `read` and `members` from it, `events!` derives
//! [`TraceEvent`](crate::TraceEvent)'s `tag` and member writer. Both spell
//! a member `"key": value` in declaration order, joined by `", "`; the key
//! is the field's name unless `#[key = "…"]` renames it, the value what
//! [`Member`] writes for the field's type. An artifact's `emit` / `parse`
//! is left with its document envelope and a loop over the rows.
//!
//! Reading is [`parse`] / [`lines`]: a strict reader (RFC 8259 grammar,
//! duplicate keys and trailing text rejected, nesting capped at
//! [`MAX_DEPTH`]) producing a borrowed [`Value`]. The tolerant-field rule
//! is held here too: a *required* member or accessor ([`Value::str`],
//! [`Value::num`], [`Value::arr`]) fails on an absent key, an *optional*
//! one (a member declared `#[default = …]`; [`Value::opt_num`] and
//! [`Value::opt_arr`] for the envelopes) takes its default, and both fail
//! on a key that is present with the wrong type or out of the target
//! type's range. Numbers are kept as source text and converted by the
//! target type's `FromStr`, so `4294967297` is not a `u32` and `1.5` is
//! not a `u64`. See DESIGN.md "Artifact formats".

use std::borrow::Cow;
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts (the artifacts use 3).
pub const MAX_DEPTH: usize = 32;

/// `s` as a JSON string literal: quoted, with `"` and `\` backslash-escaped
/// and control characters written as `\n`, `\r`, `\t` or `\u00XX`.
pub struct Str<'a>(pub &'a str);

impl Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{c:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

/// One parsed JSON value, borrowing from the source text where it can.
#[derive(Clone, PartialEq, Debug)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Num(&'a str),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in source order (keys are unique).
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// A reader error: the byte offset it was noticed at, and what was wrong.
type Fault = (usize, String);

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, msg: impl Into<String>) -> Result<T, Fault> {
        Err((self.pos, msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn unexpected<T>(&self, want: &str) -> Result<T, Fault> {
        match self.text[self.pos..].chars().next() {
            Some(c) => self.fail(format!("expected {want}, found {c:?}")),
            None => self.fail(format!("expected {want}, found end of input")),
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Fault> {
        if self.eat(byte) {
            return Ok(());
        }
        self.unexpected(&format!("'{}'", byte as char))
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, Fault> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.fail(format!("nested deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => {
                let rest = &self.text[self.pos..];
                for (word, value) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if rest.starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.unexpected("a value")
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, Fault> {
        self.pos += 1;
        let mut members: Vec<(Cow<'a, str>, Value<'a>)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.unexpected("a key");
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return self.fail(format!("duplicate key {}", Str(&key)));
            }
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            self.expect(b',')?;
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, Fault> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    /// Reads the string literal whose opening quote is at `pos`.
    fn string(&mut self) -> Result<Cow<'a, str>, Fault> {
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let rest = &self.text[self.pos..];
            let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') else {
                self.pos = self.text.len();
                return self.fail("unterminated string");
            };
            let chunk = &rest[..i];
            self.pos += i + 1;
            match rest.as_bytes()[i] {
                b'"' => {
                    return Ok(match owned {
                        Some(s) => Cow::Owned(s + chunk),
                        None => Cow::Borrowed(chunk),
                    })
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(chunk);
                    let c = self.unescape()?;
                    s.push(c);
                }
                _ => {
                    self.pos -= 1;
                    return self.fail("unescaped control character in string");
                }
            }
        }
    }

    /// Reads what follows a backslash.
    fn unescape(&mut self) -> Result<char, Fault> {
        let Some(c) = self.peek() else {
            return self.fail("unterminated string");
        };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                // A high surrogate joins the low one that follows it; any
                // other surrogate stays as it is, and is then no `char`.
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return self.fail("unpaired surrogate in \\u escape"),
                }
            }
            _ => {
                self.pos -= 1;
                return self.fail("unknown escape in string");
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Fault> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        let Some(code) = code else {
            return self.fail("\\u needs four hex digits");
        };
        self.pos += 4;
        Ok(code)
    }

    /// Reads `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<&'a str, Fault> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return self.fail("expected a digit");
        }
        if self.eat(b'.') && self.digits() == 0 {
            return self.fail("expected a digit after '.'");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.fail("expected a digit in the exponent");
            }
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.fail("leading zero in number");
        }
        Ok(&self.text[start..self.pos])
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn document(text: &str) -> Result<Value<'_>, Fault> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return r.fail("trailing text after the document");
    }
    Ok(v)
}

/// Parses `text` as exactly one JSON document.
///
/// # Errors
///
/// Returns `line N: what was wrong` for the first violation of the grammar
/// (which includes a document cut short and anything after its end).
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    document(text).map_err(|(pos, msg)| {
        let line = 1 + text.as_bytes()[..pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("line {line}: {msg}")
    })
}

/// Parses JSONL: every non-blank line of `text` is one document, handed to
/// `row`, which returns `None` to skip it.
///
/// # Errors
///
/// Returns the first error of the reader or of `row`, prefixed with the
/// 1-based line number.
pub fn lines<'a, T>(
    text: &'a str,
    mut row: impl FnMut(&Value<'a>) -> Result<Option<T>, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = document(line)
            .map_err(|(_, msg)| msg)
            .and_then(|v| row(&v))
            .map_err(|msg| format!("line {}: {msg}", i + 1))?;
        out.extend(parsed);
    }
    Ok(out)
}

/// Maps every element of the array `items` (named `what`) through `row`.
///
/// # Errors
///
/// Returns `row`'s first error, prefixed with `what[index]`.
pub fn each<'a, T>(
    what: &str,
    items: &[Value<'a>],
    row: impl Fn(&Value<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items
        .iter()
        .enumerate()
        .map(|(i, v)| row(v).map_err(|e| format!("{what}[{i}]: {e}")))
        .collect()
}

/// Field access on an object. Every accessor fails when `self` is not an
/// object and when `key` is present with a value of the wrong type (for
/// numbers: one that `T::from_str` rejects). When `key` is absent the
/// plain accessors fail and the `opt_` ones return the caller's default.
impl<'a> Value<'a> {
    fn get(&self, key: &str) -> Result<Option<&Value<'a>>, String> {
        let Value::Obj(members) = self else {
            return Err("expected an object".to_string());
        };
        Ok(members.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn need(&self, key: &str) -> Result<&Value<'a>, String> {
        self.get(key)?
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    pub(crate) fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("field \"{key}\" is not a string")),
        }
    }

    fn as_num<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        match self {
            Value::Num(text) => text
                .parse()
                .map_err(|e| format!("field \"{key}\": bad number {text}: {e}")),
            _ => Err(format!("field \"{key}\" is not a number")),
        }
    }

    fn as_arr(&self, key: &str) -> Result<&[Value<'a>], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("field \"{key}\" is not an array")),
        }
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.need(key)?.as_str(key)
    }

    /// The number under `key`, converted and range-checked by `T`.
    pub fn num<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        self.need(key)?.as_num(key)
    }

    /// The number under `key`, or `default`.
    pub fn opt_num<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key)?.map_or(Ok(default), |v| v.as_num(key))
    }

    /// The array under `key`.
    pub fn arr(&self, key: &str) -> Result<&[Value<'a>], String> {
        self.need(key)?.as_arr(key)
    }

    /// The array under `key`, or the empty array.
    pub fn opt_arr(&self, key: &str) -> Result<&[Value<'a>], String> {
        self.get(key)?.map_or(Ok(&[]), |v| v.as_arr(key))
    }
}

/// How one member of a record or event is spelled. Implemented for the
/// integer types and `bool` (plain), for `String` (through [`Str`]), and
/// beside their declarations for [`SiteId`](crate::SiteId) (its number) and
/// the wire-named enums (their `Display` name, quoted).
pub trait Member: Sized {
    /// Appends `self` as a JSON value.
    fn write(&self, out: &mut String);

    /// Reads `self` back from `v`, the value found under `key`.
    ///
    /// # Errors
    ///
    /// Names `key` when `v` has the wrong type or is out of range.
    fn read(v: &Value<'_>, key: &str) -> Result<Self, String>;

    /// Appends `"key": self, ` — the one spelling of a member. Whoever
    /// closes the object truncates the last member's `", "`.
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, "\"{key}\": ");
        self.write(out);
        out.push_str(", ");
    }

    /// The member of the object `obj` under `key`, or `default` if absent.
    ///
    /// # Errors
    ///
    /// As [`Member::read`]; also when `key` is absent and has no default.
    fn find(obj: &Value<'_>, key: &str, default: Option<Self>) -> Result<Self, String> {
        match default {
            None => Self::read(obj.need(key)?, key),
            Some(default) => obj.get(key)?.map_or(Ok(default), |v| Self::read(v, key)),
        }
    }
}

macro_rules! plain_members {
    ($($ty:ty)+) => {$(
        impl Member for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value<'_>, key: &str) -> Result<Self, String> {
                v.as_num(key)
            }
        }
    )+};
}
plain_members!(u32 u64 u128 usize i32 i64);

impl Member for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Value<'_>, key: &str) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("field \"{key}\" is not a boolean")),
        }
    }
}

impl Member for String {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{}", Str(self));
    }
    fn read(v: &Value<'_>, key: &str) -> Result<Self, String> {
        v.as_str(key).map(str::to_string)
    }
}

/// Declares a row type and derives its codec. Wraps a `pub struct` of `pub`
/// fields as it stands and generates `write`, `read` and `members`. After a
/// field's doc comment, `#[key = "…"]` names its key (the field's name
/// otherwise) and `#[default = …]` makes it optional on input; `read` binds
/// the members in order, so a default may name an earlier one.
#[macro_export]
macro_rules! record {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {$(
            $(#[doc = $doc:literal])*
            $(#[key = $key:literal])?
            $(#[default = $default:expr])?
            pub $field:ident: $ty:ty,
        )+}
    ) => {
        $(#[$meta])*
        pub struct $name {$(
            $(#[doc = $doc])*
            pub $field: $ty,
        )+}

        #[allow(dead_code)] // a row that is only ever written never calls `read`
        impl $name {
            /// Appends the row as one JSON object, members in declaration
            /// order.
            pub fn write(&self, out: &mut String) {
                out.push('{');
                $($crate::json::Member::put(
                    &self.$field,
                    $crate::record!(@key $field $($key)?),
                    out,
                );)+
                out.truncate(out.len() - 2);
                out.push('}');
            }

            /// Reads the row back from a parsed object. Unknown keys are
            /// ignored; a member that is absent without a declared default,
            /// of the wrong type or out of range is an error naming its key.
            pub fn read(v: &$crate::json::Value<'_>) -> Result<Self, String> {
                $(let $field: $ty = $crate::json::Member::find(
                    v,
                    $crate::record!(@key $field $($key)?),
                    $crate::record!(@default $($default)?),
                )?;)+
                Ok(Self { $($field),+ })
            }

            /// Every member as `(key, written value)`, in declaration order.
            pub fn members(&self) -> Vec<(&'static str, String)> {
                let mut all = Vec::new();
                $(
                    let mut value = String::new();
                    $crate::json::Member::write(&self.$field, &mut value);
                    all.push(($crate::record!(@key $field $($key)?), value));
                )+
                all
            }
        }
    };
}

/// Declares the event vocabulary and derives its write side. Wraps the enum
/// as it stands, each variant followed by `= "tag"`, and generates `tag()`
/// and the member writer behind `events_jsonl`.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {$(
            $(#[$vmeta:meta])*
            $variant:ident = $tag:literal {$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty,
            )+},
        )+}
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])*
            $variant {$(
                $(#[$fmeta])*
                $field: $ty,
            )+},
        )+}

        impl $name {
            /// A short machine-friendly tag naming the variant.
            pub fn tag(&self) -> &'static str {
                match self {$(
                    Self::$variant { .. } => $tag,
                )+}
            }

            /// Appends the variant's fields the way a record's members are
            /// spelled: `"key": value`, joined by `", "`, in declaration order.
            pub(crate) fn write_members(&self, out: &mut String) {
                match self {$(
                    Self::$variant { $($field),+ } => {
                        $($crate::json::Member::put($field, stringify!($field), out);)+
                    }
                )+}
                out.truncate(out.len() - 2);
            }
        }
    };
}
pub(crate) use events;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_escapes_and_the_reader_inverts_it() {
        assert_eq!(Str("Pentium 4").to_string(), "\"Pentium 4\"");
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{1f} é 😀, \"k\": 7, ";
        let lit = Str(nasty).to_string();
        assert!(lit.contains("\\u0001") && lit.contains("\\u001f") && lit.contains("\\n"));
        assert_eq!(parse(&lit).unwrap(), Value::Str(Cow::Borrowed(nasty)));
    }

    #[test]
    fn reads_every_value_kind() {
        let v =
            parse(" {\"a\": [1, -2.5e+3, true, false, null], \"b\": {}, \"c\": \"\\u00e9\\ud83d\\ude00\\/\"} ")
                .unwrap();
        let Value::Obj(members) = &v else {
            panic!("{v:?}")
        };
        assert!(members.iter().map(|(k, _)| &**k).eq(["a", "b", "c"]));
        assert_eq!(
            v.arr("a").unwrap(),
            [
                Value::Num("1"),
                Value::Num("-2.5e+3"),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null
            ]
        );
        assert_eq!(v.str("c").unwrap(), "é😀/");
        assert_eq!(v.opt_arr("zz").unwrap(), []);
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
    }

    #[test]
    fn accessors_hold_the_tolerant_rule() {
        let v = parse("{\"n\": 4294967297, \"s\": \"x\", \"f\": 1.5, \"neg\": -1}").unwrap();
        assert_eq!(v.num::<u64>("n").unwrap(), 4_294_967_297);
        assert!(v.num::<u32>("n").is_err(), "range-checked, never narrowed");
        assert!(v.num::<u64>("f").is_err());
        assert!(v.num::<u64>("neg").is_err());
        assert_eq!(v.num::<i64>("neg").unwrap(), -1);
        assert!(v.num::<u64>("s").is_err(), "wrong type");
        assert!(v.str("n").is_err(), "wrong type");
        assert!(v.num::<u64>("absent").unwrap_err().contains("missing"));
        assert_eq!(v.opt_num("absent", 7u64).unwrap(), 7);
        assert!(
            v.opt_num("s", 7u64).is_err(),
            "present but wrong is an error"
        );
        assert!(Value::Null.str("s").unwrap_err().contains("object"));
    }

    #[test]
    fn strict_grammar() {
        for bad in [
            "",
            "{",
            "{\"a\": 1",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{a: 1}",
            "[1 2]",
            "[1,]",
            "{\"a\": 1} x",
            "{\"a\": 1}{\"a\": 1}",
            "{\"a\": 1, \"a\": 2}",
            "\"abc",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "01",
            "-",
            "1.",
            "1e",
            "+1",
            ".5",
            "tru",
            "nul",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nested"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn errors_name_the_line() {
        assert!(parse("{\n  \"a\": 1,\n  \"b\": ?\n}")
            .unwrap_err()
            .starts_with("line 3: "));
        let e = lines("{\"a\": 1}\n\n{\"a\": }\n", |v| v.num::<u64>("a").map(Some)).unwrap_err();
        assert!(e.starts_with("line 3: "), "{e}");
        let e = lines("{\"a\": 1}\n{\"b\": 1}\n", |v| v.num::<u64>("a").map(Some)).unwrap_err();
        assert_eq!(e, "line 2: missing field \"a\"");
        let doc = parse("{\"cells\": [1, 2]}").unwrap();
        let e = each("cells", doc.arr("cells").unwrap(), |v| v.num::<u64>("a")).unwrap_err();
        assert_eq!(e, "cells[0]: expected an object");
    }

    #[test]
    fn lines_skip_blank_lines_and_rows_the_callback_drops() {
        let text = "{\"a\": 1}\n\n  \n{\"a\": 2}\n{\"a\": 3}";
        let got = lines(text, |v| {
            let a: u64 = v.num("a")?;
            Ok((a != 2).then_some(a))
        });
        assert_eq!(got.unwrap(), [1, 3]);
    }
}
