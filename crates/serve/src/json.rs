//! Canonical JSON serialization for the service's wire types.
//!
//! The workspace has no serialization framework (it builds offline,
//! with no registry access), so the serve layer ships its own
//! self-contained JSON codec — the one codec in the workspace: a
//! minimal [`Value`] model, a strict parser, and [`JsonCodec`]
//! implementations for every public job and result type plus the
//! simulator types they embed ([`Counts`], [`Circuit`], [`PauliSum`]).
//! These codecs *are* the wire format.
//!
//! # Fidelity
//!
//! - `f64` values are written with Rust's shortest round-trip formatting
//!   and re-parsed with `str::parse`, so every finite double survives a
//!   round trip **bit-exactly** (the property suite pins this).
//!   Non-finite values are rejected at encode time — JSON has no
//!   representation for them.
//! - `u64` values (seeds, shot counts, job ids) are written as decimal
//!   integers and parsed as integers, never through `f64`, so values
//!   above `2^53` survive.
//!
//! ```
//! use hgp_serve::json::JsonCodec;
//! use hgp_sim::Counts;
//!
//! let mut counts = Counts::new(2);
//! counts.record(0b11, 60);
//! counts.record(0b00, 40);
//! let text = counts.to_json_string();
//! assert_eq!(Counts::from_json_str(&text).unwrap(), counts);
//! ```

use std::fmt;

use hgp_circuit::{Circuit, Gate, Instruction, Param, ParamId};
use hgp_core::compile::HybridShape;
use hgp_core::models::GateModelOptions;
use hgp_graph::Graph;
use hgp_math::pauli::{Pauli, PauliString, PauliSum};
use hgp_obs::{Histogram, JobTrace, OpProfileSnapshot, Span, SpanKind};
use hgp_sim::Counts;

use crate::job::{
    JobError, JobId, JobOutput, JobProgram, JobRequest, JobResult, JobSpec, JobStage, Priority,
    Rejected,
};
use crate::metrics::ServeMetrics;

/// A JSON document.
///
/// Numbers are kept as their literal text ([`Value::Num`]) so integer
/// and floating interpretations are both lossless; accessors parse on
/// demand.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number value for a finite `f64`.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinity — JSON cannot represent them.
    pub fn from_f64(v: f64) -> Value {
        assert!(v.is_finite(), "JSON cannot represent {v}");
        Value::Num(format!("{v}"))
    }

    /// A number value for a `u64`.
    pub fn from_u64(v: u64) -> Value {
        Value::Num(v.to_string())
    }

    /// A number value for a `usize`.
    pub fn from_usize(v: usize) -> Value {
        Value::Num(v.to_string())
    }

    /// The value as an `f64`.
    ///
    /// # Errors
    ///
    /// Errors if this is not a parsable number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(s) => s.parse().map_err(|e| format!("bad number {s:?}: {e}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as a `u64` (rejects fractional/negative literals).
    ///
    /// # Errors
    ///
    /// Errors if this is not an unsigned integer literal.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(s) => s.parse().map_err(|e| format!("bad integer {s:?}: {e}")),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Errors if this is not an unsigned integer literal in range.
    pub fn as_usize(&self) -> Result<usize, String> {
        usize::try_from(self.as_u64()?).map_err(|e| e.to_string())
    }

    /// The value as a `bool`.
    ///
    /// # Errors
    ///
    /// Errors if this is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Errors if this is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Errors if this is not an array.
    pub fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Member `key` of an object.
    ///
    /// # Errors
    ///
    /// Errors if this is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        self.opt(key)?.ok_or_else(|| format!("missing key {key:?}"))
    }

    /// Member `key` of an object, if present.
    ///
    /// # Errors
    ///
    /// Errors if this is not an object.
    pub fn opt(&self, key: &str) -> Result<Option<&Value>, String> {
        match self {
            Value::Obj(members) => Ok(members.iter().find(|(k, _)| k == key).map(|(_, v)| v)),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// Parses a JSON document (strict: one value, no trailing input).
    ///
    /// # Errors
    ///
    /// Errors with a position-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(s) => write!(f, "{s}"),
            Value::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Value::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Value::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a bound one line of `[`s
/// overflows the parsing thread's stack and aborts the process; deeper
/// input is an `Err` instead. The deepest envelope the codec emits
/// nests 10 levels (a `submit_group` whose circuit carries a
/// parametrized gate, measured over 40,000 random envelopes;
/// `crates/serve/tests/serde_roundtrip.rs` pins the bound), so 128
/// leaves a 12x margin for legitimate documents while keeping the
/// recursion well inside a thread's default stack.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over bytes.
struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
    /// Arrays and objects currently open (at most [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to open
    /// more than [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        // Integer part: "0" or a nonzero-led digit run (JSON forbids
        // leading zeros).
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(format!("leading zero at byte {start}"));
                }
            }
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(Value::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Types with a canonical JSON representation.
pub trait JsonCodec: Sized {
    /// Encodes to a JSON value.
    fn to_json(&self) -> Value;

    /// Decodes from a JSON value, validating all invariants.
    ///
    /// # Errors
    ///
    /// Errors on structural mismatch or invariant violations (bad
    /// widths, out-of-range indices, unknown tags).
    fn from_json(value: &Value) -> Result<Self, String>;

    /// Encodes to JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Decodes from JSON text.
    ///
    /// # Errors
    ///
    /// Errors on parse failure or [`JsonCodec::from_json`] failure.
    fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&Value::parse(text)?)
    }
}

pub(crate) fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn f64_arr(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::from_f64(v)).collect())
}

fn f64_vec(value: &Value) -> Result<Vec<f64>, String> {
    value.as_arr()?.iter().map(Value::as_f64).collect()
}

impl JsonCodec for Counts {
    fn to_json(&self) -> Value {
        obj(vec![
            ("n_qubits", Value::from_usize(self.n_qubits())),
            (
                "counts",
                Value::Arr(
                    self.iter()
                        .map(|(b, c)| Value::Arr(vec![Value::from_usize(b), Value::from_u64(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let n_qubits = value.get("n_qubits")?.as_usize()?;
        if n_qubits == 0 || n_qubits > usize::BITS as usize - 1 {
            return Err(format!("bad qubit count {n_qubits}"));
        }
        let mut counts = Counts::new(n_qubits);
        for pair in value.get("counts")?.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err("count entries are [bitstring, count] pairs".to_string());
            }
            let bitstring = pair[0].as_usize()?;
            if bitstring >= 1 << n_qubits {
                return Err(format!("bitstring {bitstring} out of range"));
            }
            counts.record(bitstring, pair[1].as_u64()?);
        }
        Ok(counts)
    }
}

impl JsonCodec for Param {
    fn to_json(&self) -> Value {
        match *self {
            Param::Bound(v) => obj(vec![("b", Value::from_f64(v))]),
            Param::Free { id, scale, offset } => obj(vec![(
                "f",
                Value::Arr(vec![
                    Value::from_usize(id.0),
                    Value::from_f64(scale),
                    Value::from_f64(offset),
                ]),
            )]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        if let Some(v) = value.opt("b")? {
            return Ok(Param::Bound(v.as_f64()?));
        }
        if let Some(v) = value.opt("f")? {
            let parts = v.as_arr()?;
            if parts.len() != 3 {
                return Err("free params are [id, scale, offset]".to_string());
            }
            return Ok(Param::Free {
                id: ParamId(parts[0].as_usize()?),
                scale: parts[1].as_f64()?,
                offset: parts[2].as_f64()?,
            });
        }
        Err("param must have key \"b\" or \"f\"".to_string())
    }
}

impl JsonCodec for Gate {
    fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name().to_string())),
            (
                "params",
                Value::Arr(self.params().iter().map(JsonCodec::to_json).collect()),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let name = value.get("name")?.as_str()?;
        let params: Vec<Param> = value
            .get("params")?
            .as_arr()?
            .iter()
            .map(Param::from_json)
            .collect::<Result<_, _>>()?;
        let arity = |n: usize| -> Result<(), String> {
            if params.len() == n {
                Ok(())
            } else {
                Err(format!("gate {name} takes {n} parameter(s)"))
            }
        };
        let fixed = |g: Gate| -> Result<Gate, String> {
            arity(0)?;
            Ok(g)
        };
        match name {
            "id" => fixed(Gate::I),
            "x" => fixed(Gate::X),
            "y" => fixed(Gate::Y),
            "z" => fixed(Gate::Z),
            "h" => fixed(Gate::H),
            "s" => fixed(Gate::S),
            "sdg" => fixed(Gate::Sdg),
            "t" => fixed(Gate::T),
            "tdg" => fixed(Gate::Tdg),
            "sx" => fixed(Gate::SX),
            "cx" => fixed(Gate::CX),
            "cz" => fixed(Gate::CZ),
            "swap" => fixed(Gate::Swap),
            "rx" => {
                arity(1)?;
                Ok(Gate::Rx(params[0]))
            }
            "ry" => {
                arity(1)?;
                Ok(Gate::Ry(params[0]))
            }
            "rz" => {
                arity(1)?;
                Ok(Gate::Rz(params[0]))
            }
            "rzz" => {
                arity(1)?;
                Ok(Gate::Rzz(params[0]))
            }
            "rzx" => {
                arity(1)?;
                Ok(Gate::Rzx(params[0]))
            }
            "u3" => {
                arity(3)?;
                Ok(Gate::U3(params[0], params[1], params[2]))
            }
            other => Err(format!("unknown gate {other:?}")),
        }
    }
}

impl JsonCodec for Circuit {
    fn to_json(&self) -> Value {
        let instructions = self
            .instructions()
            .iter()
            .map(|inst| match inst {
                Instruction::Gate { gate, qubits } => obj(vec![
                    ("gate", gate.to_json()),
                    (
                        "qubits",
                        Value::Arr(qubits.iter().map(|&q| Value::from_usize(q)).collect()),
                    ),
                ]),
                Instruction::Barrier { qubits } => obj(vec![(
                    "barrier",
                    Value::Arr(qubits.iter().map(|&q| Value::from_usize(q)).collect()),
                )]),
                Instruction::Measure { qubit, cbit } => obj(vec![(
                    "measure",
                    Value::Arr(vec![Value::from_usize(*qubit), Value::from_usize(*cbit)]),
                )]),
            })
            .collect();
        obj(vec![
            ("n_qubits", Value::from_usize(self.n_qubits())),
            ("n_params", Value::from_usize(self.n_params())),
            ("instructions", Value::Arr(instructions)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let n_qubits = value.get("n_qubits")?.as_usize()?;
        if n_qubits == 0 {
            return Err("circuit must have at least one qubit".to_string());
        }
        let n_params = value.get("n_params")?.as_usize()?;
        let mut circuit = Circuit::new(n_qubits);
        circuit.add_params(n_params);
        let check_qubit = |q: usize| -> Result<usize, String> {
            if q < n_qubits {
                Ok(q)
            } else {
                Err(format!("qubit {q} out of range"))
            }
        };
        for inst in value.get("instructions")?.as_arr()? {
            if let Some(g) = inst.opt("gate")? {
                let gate = Gate::from_json(g)?;
                // Free-parameter ids must stay inside the declared table,
                // or binding would panic far from the decode site.
                for p in gate.params() {
                    if let Some(id) = p.param_id() {
                        if id.0 >= n_params {
                            return Err(format!("parameter {id} out of range"));
                        }
                    }
                }
                let qubits: Vec<usize> = inst
                    .get("qubits")?
                    .as_arr()?
                    .iter()
                    .map(|q| check_qubit(q.as_usize()?))
                    .collect::<Result<_, _>>()?;
                if qubits.len() != gate.n_qubits() {
                    return Err(format!("gate {} operand count", gate.name()));
                }
                if qubits.len() == 2 && qubits[0] == qubits[1] {
                    return Err("two-qubit gate operands must differ".to_string());
                }
                circuit.push(gate, &qubits);
            } else if let Some(b) = inst.opt("barrier")? {
                let qubits: Vec<usize> = b
                    .as_arr()?
                    .iter()
                    .map(|q| check_qubit(q.as_usize()?))
                    .collect::<Result<_, _>>()?;
                circuit
                    .instructions_mut()
                    .push(Instruction::Barrier { qubits });
            } else if let Some(m) = inst.opt("measure")? {
                let parts = m.as_arr()?;
                if parts.len() != 2 {
                    return Err("measure is [qubit, cbit]".to_string());
                }
                circuit.instructions_mut().push(Instruction::Measure {
                    qubit: check_qubit(parts[0].as_usize()?)?,
                    cbit: parts[1].as_usize()?,
                });
            } else {
                return Err("instruction must be gate/barrier/measure".to_string());
            }
        }
        Ok(circuit)
    }
}

impl JsonCodec for PauliSum {
    fn to_json(&self) -> Value {
        let terms = self
            .terms()
            .iter()
            .map(|t| {
                obj(vec![
                    ("coeff", Value::from_f64(t.coeff())),
                    (
                        "factors",
                        Value::Arr(
                            t.factors()
                                .iter()
                                .map(|&(q, p)| {
                                    Value::Arr(vec![
                                        Value::from_usize(q),
                                        Value::Str(p.to_string()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("n_qubits", Value::from_usize(self.n_qubits())),
            ("terms", Value::Arr(terms)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let n_qubits = value.get("n_qubits")?.as_usize()?;
        if n_qubits == 0 {
            return Err("observable must have at least one qubit".to_string());
        }
        let mut terms = Vec::new();
        for term in value.get("terms")?.as_arr()? {
            let coeff = term.get("coeff")?.as_f64()?;
            let mut factors: Vec<(usize, Pauli)> = Vec::new();
            for factor in term.get("factors")?.as_arr()? {
                let parts = factor.as_arr()?;
                if parts.len() != 2 {
                    return Err("factors are [qubit, pauli] pairs".to_string());
                }
                let q = parts[0].as_usize()?;
                if q >= n_qubits {
                    return Err(format!("factor qubit {q} out of range"));
                }
                if factors.iter().any(|&(seen, _)| seen == q) {
                    return Err(format!("factor qubit {q} repeated"));
                }
                let letter = parts[1].as_str()?;
                let mut chars = letter.chars();
                let (Some(c), None) = (chars.next(), chars.next()) else {
                    return Err(format!("bad Pauli {letter:?}"));
                };
                factors.push((
                    q,
                    Pauli::from_char(c).map_err(|c| format!("bad Pauli {c:?}"))?,
                ));
            }
            terms.push(PauliString::new(n_qubits, factors, coeff));
        }
        if terms.is_empty() {
            return Err("observable needs at least one term".to_string());
        }
        Ok(PauliSum::from_terms(terms))
    }
}

impl JsonCodec for Graph {
    fn to_json(&self) -> Value {
        obj(vec![
            ("n_nodes", Value::from_usize(self.n_nodes())),
            (
                "edges",
                Value::Arr(
                    self.edges()
                        .iter()
                        .map(|e| {
                            Value::Arr(vec![
                                Value::from_usize(e.u),
                                Value::from_usize(e.v),
                                Value::from_f64(e.weight),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let n_nodes = value.get("n_nodes")?.as_usize()?;
        // Bound the width at parse time: the duplicate-edge checks below
        // are quadratic in the edge count, so an unbounded wire-supplied
        // graph could pin the parsing thread long before the shape-level
        // qubit bound (`HybridShape::MAX_QUBITS`) runs. 64 nodes is well
        // past anything the simulators can evaluate.
        if n_nodes > 64 {
            return Err(format!("graph has {n_nodes} nodes (wire format max 64)"));
        }
        let mut graph = Graph::new(n_nodes);
        for edge in value.get("edges")?.as_arr()? {
            let parts = edge.as_arr()?;
            if parts.len() != 3 {
                return Err("edges are [u, v, weight] triples".to_string());
            }
            let u = parts[0].as_usize()?;
            let v = parts[1].as_usize()?;
            // Pre-validate everything Graph::add_edge would panic on —
            // wire input must produce errors, not panics.
            if u == v {
                return Err(format!("self-loop on node {u}"));
            }
            if u >= n_nodes || v >= n_nodes {
                return Err(format!("edge ({u}, {v}) out of range"));
            }
            if graph.has_edge(u, v) {
                return Err(format!("duplicate edge ({u}, {v})"));
            }
            graph.add_edge(u, v, parts[2].as_f64()?);
        }
        Ok(graph)
    }
}

impl JsonCodec for GateModelOptions {
    fn to_json(&self) -> Value {
        obj(vec![
            ("cancellation", Value::Bool(self.cancellation)),
            ("sabre_iterations", Value::from_usize(self.sabre_iterations)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(GateModelOptions {
            cancellation: value.get("cancellation")?.as_bool()?,
            sabre_iterations: value.get("sabre_iterations")?.as_usize()?,
        })
    }
}

impl JsonCodec for HybridShape {
    fn to_json(&self) -> Value {
        obj(vec![
            ("graph", self.graph().to_json()),
            ("p", Value::from_usize(self.p())),
            (
                "mixer_duration_dt",
                Value::from_u64(u64::from(self.mixer_duration_dt())),
            ),
            ("options", self.options().to_json()),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let graph = Graph::from_json(value.get("graph")?)?;
        let p = value.get("p")?.as_usize()?;
        let duration = u32::try_from(value.get("mixer_duration_dt")?.as_u64()?)
            .map_err(|e| format!("bad mixer duration: {e}"))?;
        let options = GateModelOptions::from_json(value.get("options")?)?;
        Ok(HybridShape::new(graph, p)
            .with_mixer_duration(duration)
            .with_options(options))
    }
}

impl JsonCodec for JobProgram {
    fn to_json(&self) -> Value {
        match self {
            JobProgram::Circuit(circuit) => obj(vec![("circuit", circuit.to_json())]),
            JobProgram::Hybrid(shape) => obj(vec![("hybrid", shape.to_json())]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        // Exactly one program key: an ambiguous body (e.g. two request
        // templates merged by a client bug) must be a parse error, not
        // a silent preference.
        match (value.opt("circuit")?, value.opt("hybrid")?) {
            (Some(c), None) => Ok(JobProgram::Circuit(Circuit::from_json(c)?)),
            (None, Some(h)) => Ok(JobProgram::Hybrid(HybridShape::from_json(h)?)),
            _ => Err("program must have exactly one of \"circuit\"/\"hybrid\"".to_string()),
        }
    }
}

impl JsonCodec for JobStage {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.as_str()? {
            "validate" => Ok(JobStage::Validate),
            "compile" => Ok(JobStage::Compile),
            "execute" => Ok(JobStage::Execute),
            other => Err(format!("unknown job stage {other:?}")),
        }
    }
}

impl JsonCodec for JobError {
    fn to_json(&self) -> Value {
        obj(vec![
            ("stage", self.stage.to_json()),
            ("message", Value::Str(self.message.clone())),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobError {
            stage: JobStage::from_json(value.get("stage")?)?,
            message: value.get("message")?.as_str()?.to_string(),
        })
    }
}

impl JsonCodec for JobId {
    fn to_json(&self) -> Value {
        Value::from_u64(self.0)
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobId(value.as_u64()?))
    }
}

impl JsonCodec for JobSpec {
    fn to_json(&self) -> Value {
        match self {
            JobSpec::StateVector => obj(vec![("kind", Value::Str("statevector".into()))]),
            JobSpec::DensityMatrix => obj(vec![("kind", Value::Str("density_matrix".into()))]),
            JobSpec::Counts { shots } => obj(vec![
                ("kind", Value::Str("counts".into())),
                ("shots", Value::from_usize(*shots)),
            ]),
            JobSpec::Expectation { observable } => obj(vec![
                ("kind", Value::Str("expectation".into())),
                ("observable", observable.to_json()),
            ]),
            JobSpec::TrajectoryCounts { shots } => obj(vec![
                ("kind", Value::Str("trajectory_counts".into())),
                ("shots", Value::from_usize(*shots)),
            ]),
            JobSpec::TrajectoryExpectation {
                observable,
                trajectories,
            } => obj(vec![
                ("kind", Value::Str("trajectory_expectation".into())),
                ("observable", observable.to_json()),
                ("trajectories", Value::from_usize(*trajectories)),
            ]),
            JobSpec::HybridCounts { shots } => obj(vec![
                ("kind", Value::Str("hybrid_counts".into())),
                ("shots", Value::from_usize(*shots)),
            ]),
            JobSpec::HybridExpectation { observable } => obj(vec![
                ("kind", Value::Str("hybrid_expectation".into())),
                ("observable", observable.to_json()),
            ]),
            JobSpec::HybridTrajectoryCounts { shots } => obj(vec![
                ("kind", Value::Str("hybrid_trajectory_counts".into())),
                ("shots", Value::from_usize(*shots)),
            ]),
            JobSpec::HybridTrajectoryExpectation {
                observable,
                trajectories,
            } => obj(vec![
                ("kind", Value::Str("hybrid_trajectory_expectation".into())),
                ("observable", observable.to_json()),
                ("trajectories", Value::from_usize(*trajectories)),
            ]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("kind")?.as_str()? {
            "statevector" => Ok(JobSpec::StateVector),
            "density_matrix" => Ok(JobSpec::DensityMatrix),
            "counts" => Ok(JobSpec::Counts {
                shots: value.get("shots")?.as_usize()?,
            }),
            "expectation" => Ok(JobSpec::Expectation {
                observable: PauliSum::from_json(value.get("observable")?)?,
            }),
            "trajectory_counts" => Ok(JobSpec::TrajectoryCounts {
                shots: value.get("shots")?.as_usize()?,
            }),
            "trajectory_expectation" => Ok(JobSpec::TrajectoryExpectation {
                observable: PauliSum::from_json(value.get("observable")?)?,
                trajectories: value.get("trajectories")?.as_usize()?,
            }),
            "hybrid_counts" => Ok(JobSpec::HybridCounts {
                shots: value.get("shots")?.as_usize()?,
            }),
            "hybrid_expectation" => Ok(JobSpec::HybridExpectation {
                observable: PauliSum::from_json(value.get("observable")?)?,
            }),
            "hybrid_trajectory_counts" => Ok(JobSpec::HybridTrajectoryCounts {
                shots: value.get("shots")?.as_usize()?,
            }),
            "hybrid_trajectory_expectation" => Ok(JobSpec::HybridTrajectoryExpectation {
                observable: PauliSum::from_json(value.get("observable")?)?,
                trajectories: value.get("trajectories")?.as_usize()?,
            }),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

impl JsonCodec for JobRequest {
    fn to_json(&self) -> Value {
        // The program is flattened into the request object ("circuit"
        // or "hybrid" key), keeping circuit requests byte-compatible
        // with the pre-hybrid wire format.
        let program_member = match &self.program {
            JobProgram::Circuit(circuit) => ("circuit", circuit.to_json()),
            JobProgram::Hybrid(shape) => ("hybrid", shape.to_json()),
        };
        let mut members = vec![
            program_member,
            ("params", f64_arr(&self.params)),
            ("spec", self.spec.to_json()),
        ];
        if let Some(seed) = self.seed {
            members.push(("seed", Value::from_u64(seed)));
        }
        obj(members)
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobRequest {
            program: JobProgram::from_json(value)?,
            params: f64_vec(value.get("params")?)?,
            spec: JobSpec::from_json(value.get("spec")?)?,
            seed: value.opt("seed")?.map(Value::as_u64).transpose()?,
        })
    }
}

impl JsonCodec for JobOutput {
    fn to_json(&self) -> Value {
        match self {
            JobOutput::StateVector { probabilities } => obj(vec![
                ("kind", Value::Str("statevector".into())),
                ("probabilities", f64_arr(probabilities)),
            ]),
            JobOutput::DensityMatrix {
                probabilities,
                purity,
            } => obj(vec![
                ("kind", Value::Str("density_matrix".into())),
                ("probabilities", f64_arr(probabilities)),
                ("purity", Value::from_f64(*purity)),
            ]),
            JobOutput::Counts(counts) => obj(vec![
                ("kind", Value::Str("counts".into())),
                ("counts", counts.to_json()),
            ]),
            JobOutput::Expectation { value } => obj(vec![
                ("kind", Value::Str("expectation".into())),
                ("value", Value::from_f64(*value)),
            ]),
            JobOutput::TrajectoryCounts(counts) => obj(vec![
                ("kind", Value::Str("trajectory_counts".into())),
                ("counts", counts.to_json()),
            ]),
            JobOutput::TrajectoryExpectation {
                value,
                std_error,
                trajectories,
            } => obj(vec![
                ("kind", Value::Str("trajectory_expectation".into())),
                ("value", Value::from_f64(*value)),
                ("std_error", Value::from_f64(*std_error)),
                ("trajectories", Value::from_usize(*trajectories)),
            ]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("kind")?.as_str()? {
            "statevector" => Ok(JobOutput::StateVector {
                probabilities: f64_vec(value.get("probabilities")?)?,
            }),
            "density_matrix" => Ok(JobOutput::DensityMatrix {
                probabilities: f64_vec(value.get("probabilities")?)?,
                purity: value.get("purity")?.as_f64()?,
            }),
            "counts" => Ok(JobOutput::Counts(Counts::from_json(value.get("counts")?)?)),
            "expectation" => Ok(JobOutput::Expectation {
                value: value.get("value")?.as_f64()?,
            }),
            "trajectory_counts" => Ok(JobOutput::TrajectoryCounts(Counts::from_json(
                value.get("counts")?,
            )?)),
            "trajectory_expectation" => Ok(JobOutput::TrajectoryExpectation {
                value: value.get("value")?.as_f64()?,
                std_error: value.get("std_error")?.as_f64()?,
                trajectories: value.get("trajectories")?.as_usize()?,
            }),
            other => Err(format!("unknown output kind {other:?}")),
        }
    }
}

impl JsonCodec for JobResult {
    fn to_json(&self) -> Value {
        let payload = match &self.output {
            Ok(output) => ("output", output.to_json()),
            Err(error) => ("error", error.to_json()),
        };
        obj(vec![
            ("id", self.id.to_json()),
            ("seed", Value::from_u64(self.seed)),
            ("cache_hit", Value::Bool(self.cache_hit)),
            ("elapsed_ns", Value::from_u64(self.elapsed_ns)),
            payload,
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let output = match (value.opt("output")?, value.opt("error")?) {
            (Some(output), None) => Ok(JobOutput::from_json(output)?),
            (None, Some(error)) => Err(JobError::from_json(error)?),
            _ => return Err("result must have exactly one of \"output\"/\"error\"".to_string()),
        };
        Ok(JobResult {
            id: JobId::from_json(value.get("id")?)?,
            seed: value.get("seed")?.as_u64()?,
            cache_hit: value.get("cache_hit")?.as_bool()?,
            elapsed_ns: value.get("elapsed_ns")?.as_u64()?,
            output,
        })
    }
}

impl JsonCodec for Priority {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.as_str()? {
            "interactive" => Ok(Priority::Interactive),
            "batch" => Ok(Priority::Batch),
            "background" => Ok(Priority::Background),
            other => Err(format!("unknown priority {other:?}")),
        }
    }
}

impl JsonCodec for Rejected {
    fn to_json(&self) -> Value {
        match self {
            Rejected::QueueFull { depth, limit } => obj(vec![
                ("kind", Value::Str("queue_full".into())),
                ("depth", Value::from_usize(*depth)),
                ("limit", Value::from_usize(*limit)),
            ]),
            Rejected::TooLarge { shots, limit } => obj(vec![
                ("kind", Value::Str("too_large".into())),
                ("shots", Value::from_u64(*shots)),
                ("limit", Value::from_u64(*limit)),
            ]),
            Rejected::ShuttingDown => obj(vec![("kind", Value::Str("shutting_down".into()))]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("kind")?.as_str()? {
            "queue_full" => Ok(Rejected::QueueFull {
                depth: value.get("depth")?.as_usize()?,
                limit: value.get("limit")?.as_usize()?,
            }),
            "too_large" => Ok(Rejected::TooLarge {
                shots: value.get("shots")?.as_u64()?,
                limit: value.get("limit")?.as_u64()?,
            }),
            "shutting_down" => Ok(Rejected::ShuttingDown),
            other => Err(format!("unknown rejection kind {other:?}")),
        }
    }
}

fn u64_arr(values: &[u64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::from_u64(v)).collect())
}

fn u64_arr_n<const N: usize>(value: &Value) -> Result<[u64; N], String> {
    let items = value.as_arr()?;
    if items.len() != N {
        return Err(format!("expected {N} entries, got {}", items.len()));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Ok(out)
}

fn u64_arr3(value: &Value) -> Result<[u64; 3], String> {
    u64_arr_n::<3>(value)
}

impl JsonCodec for Histogram {
    fn to_json(&self) -> Value {
        // Sparse encoding: only occupied buckets travel. A dense 64-slot
        // array would dominate every metrics snapshot with zeros.
        let buckets: Vec<Value> = self
            .counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| Value::Arr(vec![Value::from_usize(i), Value::from_u64(c)]))
            .collect();
        obj(vec![
            ("buckets", Value::Arr(buckets)),
            ("count", Value::from_u64(self.count())),
            ("sum", Value::from_u64(self.sum())),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let mut counts = [0u64; hgp_obs::histogram::BUCKETS];
        for pair in value.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err("histogram buckets are [index, count] pairs".into());
            }
            let i = pair[0].as_usize()?;
            *counts
                .get_mut(i)
                .ok_or_else(|| format!("histogram bucket index {i} out of range"))? =
                pair[1].as_u64()?;
        }
        Ok(Histogram::from_parts(
            counts,
            value.get("count")?.as_u64()?,
            value.get("sum")?.as_u64()?,
        ))
    }
}

impl JsonCodec for OpProfileSnapshot {
    fn to_json(&self) -> Value {
        obj(vec![
            ("calls", u64_arr(&self.calls)),
            ("ns", u64_arr(&self.ns)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(OpProfileSnapshot {
            calls: u64_arr_n(value.get("calls")?)?,
            ns: u64_arr_n(value.get("ns")?)?,
        })
    }
}

impl JsonCodec for Span {
    fn to_json(&self) -> Value {
        obj(vec![
            ("kind", Value::Str(self.kind.name().into())),
            ("at_ns", Value::from_u64(self.at_ns)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let kind = value.get("kind")?.as_str()?;
        Ok(Span {
            kind: SpanKind::parse(kind).ok_or_else(|| format!("unknown span kind {kind:?}"))?,
            at_ns: value.get("at_ns")?.as_u64()?,
        })
    }
}

impl JsonCodec for JobTrace {
    fn to_json(&self) -> Value {
        obj(vec![
            ("job", Value::from_u64(self.job)),
            ("job_kind", Value::from_u64(u64::from(self.job_kind))),
            ("priority", Value::from_u64(u64::from(self.priority))),
            ("shots", Value::from_u64(self.shots)),
            ("cache_hit", Value::Bool(self.cache_hit)),
            ("ok", Value::Bool(self.ok)),
            (
                "spans",
                Value::Arr(self.spans.iter().map(JsonCodec::to_json).collect()),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let spans = value
            .get("spans")?
            .as_arr()?
            .iter()
            .map(Span::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let narrow = |v: u64, what: &str| -> Result<u32, String> {
            u32::try_from(v).map_err(|_| format!("{what} {v} exceeds u32"))
        };
        Ok(JobTrace {
            job: value.get("job")?.as_u64()?,
            job_kind: narrow(value.get("job_kind")?.as_u64()?, "job_kind")?,
            priority: narrow(value.get("priority")?.as_u64()?, "priority")?,
            shots: value.get("shots")?.as_u64()?,
            cache_hit: value.get("cache_hit")?.as_bool()?,
            ok: value.get("ok")?.as_bool()?,
            spans,
        })
    }
}

fn hist_arr(values: &[Histogram]) -> Value {
    Value::Arr(values.iter().map(JsonCodec::to_json).collect())
}

fn hist_arr_n<const N: usize>(value: &Value) -> Result<[Histogram; N], String> {
    let items = value.as_arr()?;
    if items.len() != N {
        return Err(format!("expected {N} histograms, got {}", items.len()));
    }
    let mut out: [Histogram; N] = std::array::from_fn(|_| Histogram::default());
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = Histogram::from_json(item)?;
    }
    Ok(out)
}

impl JsonCodec for ServeMetrics {
    fn to_json(&self) -> Value {
        obj(vec![
            ("jobs_completed", Value::from_u64(self.jobs_completed)),
            ("jobs_failed", Value::from_u64(self.jobs_failed)),
            ("batches", Value::from_u64(self.batches)),
            ("cache_hits", Value::from_u64(self.cache_hits)),
            ("cache_misses", Value::from_u64(self.cache_misses)),
            ("wall_ns", Value::from_u64(self.wall_ns)),
            ("queue_depth", Value::from_u64(self.queue_depth)),
            ("admitted", u64_arr(&self.admitted)),
            ("rejected_full", u64_arr(&self.rejected_full)),
            ("rejected_large", u64_arr(&self.rejected_large)),
            ("shots_executed", Value::from_u64(self.shots_executed)),
            ("queue_hist", self.queue_hist.to_json()),
            ("validate_hist", self.validate_hist.to_json()),
            ("compile_hist", self.compile_hist.to_json()),
            ("bind_hist", self.bind_hist.to_json()),
            ("exec_hist", self.exec_hist.to_json()),
            ("priority_hist", hist_arr(&self.priority_hist)),
            ("kind_hist", hist_arr(&self.kind_hist)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(ServeMetrics {
            jobs_completed: value.get("jobs_completed")?.as_u64()?,
            jobs_failed: value.get("jobs_failed")?.as_u64()?,
            batches: value.get("batches")?.as_u64()?,
            cache_hits: value.get("cache_hits")?.as_u64()?,
            cache_misses: value.get("cache_misses")?.as_u64()?,
            wall_ns: value.get("wall_ns")?.as_u64()?,
            queue_depth: value.get("queue_depth")?.as_u64()?,
            admitted: u64_arr3(value.get("admitted")?)?,
            rejected_full: u64_arr3(value.get("rejected_full")?)?,
            rejected_large: u64_arr3(value.get("rejected_large")?)?,
            shots_executed: value.get("shots_executed")?.as_u64()?,
            queue_hist: Histogram::from_json(value.get("queue_hist")?)?,
            validate_hist: Histogram::from_json(value.get("validate_hist")?)?,
            compile_hist: Histogram::from_json(value.get("compile_hist")?)?,
            bind_hist: Histogram::from_json(value.get("bind_hist")?)?,
            exec_hist: Histogram::from_json(value.get("exec_hist")?)?,
            priority_hist: hist_arr_n(value.get("priority_hist")?)?,
            kind_hist: hist_arr_n(value.get("kind_hist")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_canonical_forms() {
        let v = Value::parse(r#"{"a":[1,-2.5,1e3,null,true,"x\n\"\u00e9"],"b":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64().unwrap(), 1);
        assert!((a[1].as_f64().unwrap() + 2.5).abs() < 1e-15);
        assert!((a[2].as_f64().unwrap() - 1000.0).abs() < 1e-12);
        assert_eq!(a[3], Value::Null);
        assert!(a[4].as_bool().unwrap());
        assert_eq!(a[5].as_str().unwrap(), "x\n\"\u{e9}");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1 2", "\"\\q\"", "nul", "+3",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        // Unbounded, a line of 200k `[`s overflows the parsing thread's
        // stack; bounded, it is an ordinary parse error.
        let err = Value::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        // Exactly MAX_DEPTH levels still parse; one more does not.
        assert!(Value::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(Value::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&objects(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not a count of containers: siblings reuse it.
        let wide = format!("[{}]", vec![nest("[", "]", MAX_DEPTH - 1); 3].join(","));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn value_round_trips_through_text() {
        let v =
            Value::parse(r#"{"k":[1,2.25,"s",{"n":null}],"big":18446744073709551615}"#).unwrap();
        let again = Value::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
        assert_eq!(again.get("big").unwrap().as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn f64_text_is_bit_exact() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -0.0,
            2.0_f64.powi(60),
        ] {
            let text = Value::from_f64(v).to_string();
            let back: f64 = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn ambiguous_program_payloads_are_rejected() {
        // Both program keys present: must be a parse error, never a
        // silent preference for one of them.
        let both = r#"{"circuit":{"n_qubits":1,"n_params":0,"instructions":[]},
            "hybrid":{"graph":{"n_nodes":2,"edges":[[0,1,1.0]]},"p":1,
                      "mixer_duration_dt":320,
                      "options":{"cancellation":false,"sabre_iterations":0}},
            "params":[],"spec":{"kind":"statevector"}}"#;
        let err = JobRequest::from_json_str(both).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        // Malformed graphs are parse errors too (never panics), and an
        // absurd wire-supplied width is rejected before the quadratic
        // edge validation can run.
        for bad in [
            r#"{"n_nodes":2,"edges":[[0,0,1.0]]}"#,
            r#"{"n_nodes":2,"edges":[[0,5,1.0]]}"#,
            r#"{"n_nodes":2,"edges":[[0,1,1.0],[1,0,2.0]]}"#,
            r#"{"n_nodes":100000,"edges":[]}"#,
        ] {
            assert!(Graph::from_json_str(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn unknown_gate_and_bad_widths_are_rejected() {
        assert!(
            Gate::from_json(&Value::parse(r#"{"name":"frobnicate","params":[]}"#).unwrap())
                .is_err()
        );
        let bad_circuit = r#"{"n_qubits":1,"n_params":0,"instructions":[
            {"gate":{"name":"h","params":[]},"qubits":[4]}]}"#;
        assert!(Circuit::from_json_str(bad_circuit).is_err());
        let unbound_id = r#"{"n_qubits":1,"n_params":1,"instructions":[
            {"gate":{"name":"rx","params":[{"f":[3,1,0]}]},"qubits":[0]}]}"#;
        assert!(Circuit::from_json_str(unbound_id).is_err());
    }
}
