//! A textual front-end for the heterogeneous-programming DSL.
//!
//! Programs can be written in a small concrete syntax instead of
//! constructing the AST by hand:
//!
//! ```text
//! program reduction {
//!     compute 142;
//!     buffer a: 160256;
//!     buffer b: 160256;
//!     buffer c: 64;
//!     buffer d: 160256;
//!     buffer e: 160256;
//!     buffer f: 64;
//!
//!     init a, b, d, e;
//!     gpu addGPUTwoVectors(read a, b; write c);
//!     cpu addTwoVectors(read d, e; write f);
//!     seq addTwoVectors(read c, f; write f);
//! }
//! ```
//!
//! Grammar (EBNF):
//!
//! ```text
//! program  := "program" IDENT "{" item* "}"
//! item     := compute | buffer | step
//! compute  := "compute" INT ";"
//! buffer   := "buffer" IDENT ":" INT [mode] ";"
//! mode     := "read" | "write" | "readwrite" | "reduce"
//! step     := init | kernel | seq | loop
//! init     := "init" idents ";"
//! kernel   := ("gpu" | "cpu") IDENT "(" io ")" ["uploads" "args"] ";"
//! seq      := "seq" IDENT "(" io ")" ";"
//! io       := ["read" idents] [";" "write" idents] | "write" idents
//! loop     := "loop" INT "{" step* "}"
//! idents   := IDENT ("," IDENT)*
//! ```
//!
//! Comments run from `//` to end of line. Errors carry line and column.

use crate::ast::{AccessMode, BufId, Buffer, Program, ProgramError, Step, Target, MAX_LOOP_DEPTH};
use std::collections::HashMap;
use std::fmt;

/// Position of a token or error in the source text (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parse-time diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem was detected.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semi,
    Comma,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Int(n) => write!(f, "integer {n}"),
            Tok::LBrace => f.write_str("'{'"),
            Tok::RBrace => f.write_str("'}'"),
            Tok::LParen => f.write_str("'('"),
            Tok::RParen => f.write_str("')'"),
            Tok::Colon => f.write_str("':'"),
            Tok::Semi => f.write_str("';'"),
            Tok::Comma => f.write_str("','"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    idx: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            src: src.as_bytes(),
            idx: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.idx).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.idx += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.idx + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek_byte() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn next_token(&mut self) -> Result<(Tok, Pos), ParseError> {
        self.skip_trivia();
        let pos = self.pos();
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, pos));
        };
        let tok = match b {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b':' => {
                self.bump();
                Tok::Colon
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\n') | None => {
                            return Err(ParseError {
                                pos,
                                message: "unterminated string literal".to_owned(),
                            })
                        }
                        Some(c) => s.push(c as char),
                    }
                }
                Tok::Str(s)
            }
            b'0'..=b'9' => {
                let mut n: u64 = 0;
                while let Some(d @ b'0'..=b'9') = self.peek_byte() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d - b'0')))
                        .ok_or_else(|| ParseError {
                            pos,
                            message: "integer literal overflows u64".to_owned(),
                        })?;
                    self.bump();
                }
                // Allow a trailing unit suffix like `B`/`KB` to be part of
                // the number? Keep strict: digits only.
                Tok::Int(n)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.idx;
                while let Some(c) = self.peek_byte() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let s = std::str::from_utf8(&self.src[start..self.idx]).expect("ASCII ident bytes");
                Tok::Ident(s.to_owned())
            }
            other => {
                return Err(ParseError {
                    pos,
                    message: format!("unexpected character {:?}", other as char),
                })
            }
        };
        Ok((tok, pos))
    }
}

struct Parser {
    toks: Vec<(Tok, Pos)>,
    idx: usize,
    buffers: Vec<Buffer>,
    by_name: HashMap<String, BufId>,
    /// How many loop bodies enclose the step being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &(Tok, Pos) {
        &self.toks[self.idx.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> (Tok, Pos) {
        let t = self.toks[self.idx.min(self.toks.len() - 1)].clone();
        if self.idx < self.toks.len() - 1 {
            self.idx += 1;
        }
        t
    }

    fn err<T>(&self, pos: Pos, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos,
            message: message.into(),
        })
    }

    fn expect(&mut self, want: &Tok) -> Result<Pos, ParseError> {
        let (tok, pos) = self.bump();
        if &tok == want {
            Ok(pos)
        } else {
            self.err(pos, format!("expected {want}, found {tok}"))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Pos), ParseError> {
        let (tok, pos) = self.bump();
        match tok {
            Tok::Ident(s) => Ok((s, pos)),
            other => self.err(pos, format!("expected identifier, found {other}")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Pos, ParseError> {
        let (name, pos) = self.expect_ident()?;
        if name == kw {
            Ok(pos)
        } else {
            self.err(pos, format!("expected keyword {kw:?}, found {name:?}"))
        }
    }

    fn expect_int(&mut self) -> Result<(u64, Pos), ParseError> {
        let (tok, pos) = self.bump();
        match tok {
            Tok::Int(n) => Ok((n, pos)),
            other => self.err(pos, format!("expected integer, found {other}")),
        }
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(&self.peek().0, Tok::Ident(s) if s == kw)
    }

    fn buf_ref(&mut self) -> Result<BufId, ParseError> {
        let (name, pos) = self.expect_ident()?;
        self.by_name.get(&name).copied().ok_or(()).or_else(|()| {
            self.err(
                pos,
                format!("unknown buffer {name:?} (declare it with `buffer`)"),
            )
        })
    }

    fn ident_list(&mut self) -> Result<Vec<BufId>, ParseError> {
        let mut out = vec![self.buf_ref()?];
        while self.peek().0 == Tok::Comma {
            self.bump();
            out.push(self.buf_ref()?);
        }
        Ok(out)
    }

    /// Parses `read a, b; write c` (either part optional, at least one).
    fn io(&mut self) -> Result<(Vec<BufId>, Vec<BufId>), ParseError> {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        if self.at_ident("read") {
            self.bump();
            reads = self.ident_list()?;
            if self.peek().0 == Tok::Semi {
                self.bump();
                self.expect_keyword("write")?;
                writes = self.ident_list()?;
            }
        } else if self.at_ident("write") {
            self.bump();
            writes = self.ident_list()?;
        } else {
            let (tok, pos) = self.peek().clone();
            return self.err(pos, format!("expected `read` or `write`, found {tok}"));
        }
        Ok((reads, writes))
    }

    fn step(&mut self) -> Result<Step, ParseError> {
        let (kw, pos) = self.expect_ident()?;
        match kw.as_str() {
            "init" => {
                let bufs = self.ident_list()?;
                self.expect(&Tok::Semi)?;
                Ok(Step::HostInit { bufs })
            }
            "gpu" | "cpu" => {
                let target = if kw == "gpu" {
                    Target::Gpu
                } else {
                    Target::Cpu
                };
                let (name, _) = self.expect_ident()?;
                self.expect(&Tok::LParen)?;
                let (reads, writes) = self.io()?;
                self.expect(&Tok::RParen)?;
                let mut args_upload = false;
                if self.at_ident("uploads") {
                    self.bump();
                    self.expect_keyword("args")?;
                    args_upload = true;
                }
                self.expect(&Tok::Semi)?;
                Ok(Step::Kernel {
                    target,
                    name,
                    reads,
                    writes,
                    args_upload,
                })
            }
            "seq" => {
                let (name, _) = self.expect_ident()?;
                self.expect(&Tok::LParen)?;
                let (reads, writes) = self.io()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Step::Seq {
                    name,
                    reads,
                    writes,
                })
            }
            "loop" => {
                // Reject deep nesting here, before recursing into the body.
                if self.depth == MAX_LOOP_DEPTH {
                    let limit = MAX_LOOP_DEPTH;
                    return self.err(pos, ProgramError::LoopsTooDeep { limit }.to_string());
                }
                let (iterations, ipos) = self.expect_int()?;
                let iterations = u32::try_from(iterations).map_err(|_| ParseError {
                    pos: ipos,
                    message: "loop count does not fit in u32".to_owned(),
                })?;
                self.expect(&Tok::LBrace)?;
                let mut body = Vec::new();
                self.depth += 1;
                while self.peek().0 != Tok::RBrace {
                    if self.peek().0 == Tok::Eof {
                        let pos = self.peek().1;
                        return self.err(pos, "unclosed loop body (missing '}')");
                    }
                    body.push(self.step()?);
                }
                self.depth -= 1;
                self.expect(&Tok::RBrace)?;
                Ok(Step::Loop { iterations, body })
            }
            other => self.err(
                pos,
                format!("expected a step (`init`, `gpu`, `cpu`, `seq`, `loop`), found {other:?}"),
            ),
        }
    }
}

/// Parses a program from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on malformed input, duplicate
/// or unknown buffer names, or a program that fails
/// [`Program::validate`].
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    // Lex everything up front.
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let (tok, pos) = lexer.next_token()?;
        let done = tok == Tok::Eof;
        toks.push((tok, pos));
        if done {
            break;
        }
    }
    let mut p = Parser {
        toks,
        idx: 0,
        buffers: Vec::new(),
        by_name: HashMap::new(),
        depth: 0,
    };

    p.expect_keyword("program")?;
    // Program names may be bare identifiers or quoted strings (the paper's
    // kernel names contain spaces and hyphens: "matrix mul", "k-mean").
    let name = match p.bump() {
        (Tok::Ident(s), _) | (Tok::Str(s), _) => s,
        (other, pos) => {
            return Err(ParseError {
                pos,
                message: format!("expected a program name, found {other}"),
            })
        }
    };
    p.expect(&Tok::LBrace)?;

    let mut compute_lines = 0u32;
    let mut steps = Vec::new();
    loop {
        match &p.peek().0 {
            Tok::RBrace => {
                p.bump();
                break;
            }
            Tok::Eof => {
                let pos = p.peek().1;
                return p.err(pos, "unclosed program body (missing '}')");
            }
            Tok::Ident(kw) if kw == "buffer" => {
                p.bump();
                let (bname, bpos) = p.expect_ident()?;
                p.expect(&Tok::Colon)?;
                let (bytes, _) = p.expect_int()?;
                // Optional access-mode intent before the semicolon.
                let mut mode = AccessMode::ReadWrite;
                if let Tok::Ident(word) = &p.peek().0 {
                    let (word, wpos) = (word.clone(), p.peek().1);
                    match AccessMode::from_keyword(&word) {
                        Some(m) => {
                            p.bump();
                            mode = m;
                        }
                        None => {
                            return p.err(
                                wpos,
                                format!(
                                    "expected an access mode \
                                     (read|write|readwrite|reduce) or ';', found {word:?}"
                                ),
                            )
                        }
                    }
                }
                p.expect(&Tok::Semi)?;
                if p.by_name.contains_key(&bname) {
                    return p.err(bpos, format!("duplicate buffer {bname:?}"));
                }
                p.by_name.insert(bname.clone(), BufId(p.buffers.len()));
                p.buffers.push(Buffer::with_mode(bname, bytes, mode));
            }
            Tok::Ident(kw) if kw == "compute" => {
                p.bump();
                let (n, npos) = p.expect_int()?;
                p.expect(&Tok::Semi)?;
                compute_lines = u32::try_from(n).map_err(|_| ParseError {
                    pos: npos,
                    message: "compute line count does not fit in u32".to_owned(),
                })?;
            }
            _ => steps.push(p.step()?),
        }
    }

    let program = Program {
        name,
        buffers: p.buffers,
        steps,
        compute_lines,
    };
    if let Err(e) = program.validate() {
        return Err(ParseError {
            pos: Pos { line: 1, col: 1 },
            message: format!("program is structurally invalid: {e}"),
        });
    }
    Ok(program)
}

/// Renders a [`Program`] back into the textual form accepted by
/// [`parse_program`]. `parse_program(&write_program(p))` reproduces `p`
/// exactly (see the round-trip property test).
#[must_use]
pub fn write_program(program: &Program) -> String {
    fn idents(program: &Program, ids: &[BufId]) -> String {
        ids.iter()
            .map(|&b| program.buffer(b).name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    }
    fn io(program: &Program, reads: &[BufId], writes: &[BufId]) -> String {
        match (reads.is_empty(), writes.is_empty()) {
            (false, false) => {
                format!(
                    "read {}; write {}",
                    idents(program, reads),
                    idents(program, writes)
                )
            }
            (false, true) => format!("read {}", idents(program, reads)),
            (true, false) => format!("write {}", idents(program, writes)),
            (true, true) => String::new(),
        }
    }
    fn steps(program: &Program, out: &mut String, list: &[Step], indent: usize) {
        let pad = "    ".repeat(indent);
        for step in list {
            match step {
                Step::HostInit { bufs } => {
                    out.push_str(&format!("{pad}init {};\n", idents(program, bufs)));
                }
                Step::Kernel {
                    target,
                    name,
                    reads,
                    writes,
                    args_upload,
                } => {
                    let t = match target {
                        Target::Gpu => "gpu",
                        Target::Cpu => "cpu",
                    };
                    let upload = if *args_upload { " uploads args" } else { "" };
                    out.push_str(&format!(
                        "{pad}{t} {name}({}){upload};\n",
                        io(program, reads, writes)
                    ));
                }
                Step::Seq {
                    name,
                    reads,
                    writes,
                } => {
                    out.push_str(&format!(
                        "{pad}seq {name}({});\n",
                        io(program, reads, writes)
                    ));
                }
                Step::Loop { iterations, body } => {
                    out.push_str(&format!("{pad}loop {iterations} {{\n"));
                    steps(program, out, body, indent + 1);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
        }
    }

    let is_bare_ident = !program.name.is_empty()
        && program
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !program.name.starts_with(|c: char| c.is_ascii_digit());
    let mut out = if is_bare_ident {
        format!("program {} {{\n", program.name)
    } else {
        format!("program \"{}\" {{\n", program.name)
    };
    out.push_str(&format!("    compute {};\n", program.compute_lines));
    for b in &program.buffers {
        if b.mode == AccessMode::ReadWrite {
            out.push_str(&format!("    buffer {}: {};\n", b.name, b.bytes));
        } else {
            out.push_str(&format!(
                "    buffer {}: {} {};\n",
                b.name,
                b.bytes,
                b.mode.keyword()
            ));
        }
    }
    steps(program, &mut out, &program.steps, 1);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    const REDUCTION_SRC: &str = r"
        program reduction {
            compute 142;
            buffer a: 160256;
            buffer b: 160256;
            buffer c: 64;
            buffer d: 160256;
            buffer e: 160256;
            buffer f: 64;

            init a, b, d, e;
            gpu addGPUTwoVectors(read a, b; write c);
            cpu addTwoVectors(read d, e; write f);
            seq addTwoVectors(read c, f; write f);
        }
    ";

    #[test]
    fn parses_the_paper_reduction() {
        let parsed = parse_program(REDUCTION_SRC).expect("valid source");
        assert_eq!(parsed, programs::reduction());
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "program p { // a program\n  buffer x: 64; // the buffer\n  init x; }";
        let p = parse_program(src).expect("valid");
        assert_eq!(p.name, "p");
        assert_eq!(p.buffers.len(), 1);
    }

    #[test]
    fn loops_nest() {
        let src = r"
            program nested {
                buffer x: 64;
                init x;
                loop 2 {
                    loop 3 {
                        gpu k(read x; write x);
                    }
                    seq merge(read x);
                }
            }
        ";
        let p = parse_program(src).expect("valid");
        assert_eq!(p.gpu_kernel_sites(), 1);
        match &p.steps[1] {
            Step::Loop {
                iterations: 2,
                body,
            } => match &body[0] {
                Step::Loop { iterations: 3, .. } => {}
                other => panic!("expected inner loop, got {other:?}"),
            },
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn uploads_args_flag() {
        let src = "program p { buffer x: 64; init x; gpu k(read x; write x) uploads args; }";
        let p = parse_program(src).expect("valid");
        assert!(matches!(
            &p.steps[1],
            Step::Kernel {
                args_upload: true,
                ..
            }
        ));
    }

    #[test]
    fn write_only_kernel() {
        let src = "program p { buffer x: 64; gpu zero(write x); seq use(read x); }";
        let p = parse_program(src).expect("valid");
        assert!(
            matches!(&p.steps[0], Step::Kernel { reads, writes, .. } if reads.is_empty() && writes.len() == 1)
        );
    }

    #[test]
    fn unknown_buffer_is_reported_with_position() {
        let src = "program p {\n  buffer x: 64;\n  init y;\n}";
        let err = parse_program(src).expect_err("y is undeclared");
        assert_eq!(err.pos.line, 3);
        assert!(err.message.contains("unknown buffer \"y\""), "{err}");
    }

    #[test]
    fn duplicate_buffer_is_rejected() {
        let src = "program p { buffer x: 64; buffer x: 128; }";
        let err = parse_program(src).expect_err("duplicate");
        assert!(err.message.contains("duplicate buffer"), "{err}");
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let src = "program p { buffer x: 64 }";
        let err = parse_program(src).expect_err("missing semicolon");
        assert!(err.message.contains("expected ';'"), "{err}");
    }

    #[test]
    fn unclosed_bodies_are_reported() {
        let err = parse_program("program p { buffer x: 64;").expect_err("unclosed");
        assert!(err.message.contains("unclosed program body"), "{err}");
        let err = parse_program("program p { buffer x: 64; loop 2 { init x; ")
            .expect_err("unclosed loop");
        assert!(err.message.contains("unclosed loop"), "{err}");
    }

    #[test]
    fn unexpected_character_is_reported() {
        let err = parse_program("program p { buffer x: 64; @ }").expect_err("bad char");
        assert!(err.message.contains("unexpected character"), "{err}");
    }

    #[test]
    fn integer_overflow_is_caught() {
        let err = parse_program("program p { buffer x: 99999999999999999999999999; }")
            .expect_err("overflow");
        assert!(err.message.contains("overflows"), "{err}");
    }

    #[test]
    fn nesting_past_the_limit_is_rejected_at_its_loop() {
        let nest = |levels: usize| {
            format!(
                "program p {{ buffer a: 8; init a;\n{}gpu k(write a);{} }}",
                "loop 1 {\n".repeat(levels),
                "}".repeat(levels)
            )
        };
        parse_program(&nest(MAX_LOOP_DEPTH)).expect("at the limit");
        let err = parse_program(&nest(MAX_LOOP_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err.pos, Pos { line: 18, col: 1 }, "{err}");
        assert!(err.message.contains("limit of 16 levels"), "{err}");
        // Far past the limit, the parser stops at the same loop instead of
        // recursing once per level.
        let deep = parse_program(&nest(20_000)).expect_err("too deep");
        assert_eq!(deep.pos, err.pos);
    }

    #[test]
    fn zero_iteration_loop_is_structurally_invalid() {
        let src = "program p { buffer x: 64; loop 0 { init x; } }";
        let err = parse_program(src).expect_err("invalid loop");
        assert!(err.message.contains("structurally invalid"), "{err}");
    }

    #[test]
    fn access_modes_parse_and_round_trip() {
        let src = "program p {
            buffer a: 64 read;
            buffer b: 64 write;
            buffer c: 64 readwrite;
            buffer d: 64 reduce;
            buffer e: 64;
            init a;
            gpu k(read a; write b);
            seq use(read b);
        }";
        let p = parse_program(src).expect("valid");
        assert_eq!(p.buffers[0].mode, AccessMode::Read);
        assert_eq!(p.buffers[1].mode, AccessMode::Write);
        assert_eq!(p.buffers[2].mode, AccessMode::ReadWrite);
        assert_eq!(p.buffers[3].mode, AccessMode::Reduce);
        assert_eq!(p.buffers[4].mode, AccessMode::ReadWrite);
        let text = write_program(&p);
        assert!(text.contains("buffer a: 64 read;"), "{text}");
        assert!(text.contains("buffer b: 64 write;"), "{text}");
        // An explicit `readwrite` is the default and prints bare.
        assert!(text.contains("buffer c: 64;"), "{text}");
        assert!(text.contains("buffer d: 64 reduce;"), "{text}");
        assert_eq!(parse_program(&text).expect("round trip"), p);
    }

    #[test]
    fn bad_access_mode_is_reported() {
        let err =
            parse_program("program p { buffer x: 64 sideways; init x; }").expect_err("bad mode");
        assert!(err.message.contains("access mode"), "{err}");
    }

    #[test]
    fn all_paper_programs_round_trip_through_text() {
        for p in programs::all() {
            let src = write_program(&p);
            let reparsed = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", p.name));
            assert_eq!(reparsed, p, "{}", p.name);
        }
    }

    #[test]
    fn error_positions_point_into_the_source() {
        let src = "program p {\n    buffer x: 64;\n    gpu k(read x write x);\n}";
        // Missing ';' between read and write clauses.
        let err = parse_program(src).expect_err("malformed io");
        assert_eq!(err.pos.line, 3);
    }
}
