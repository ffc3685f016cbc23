//! Parser for the textual IR.
//!
//! # Grammar (line oriented; `//` starts a comment)
//!
//! ```text
//! program    := (global | ginit | func)*
//! global     := "global" "@" NAME ["fields" INT] ["array"]
//! ginit      := "ginit" "@" NAME "," "@" NAME      // *g = h  (h: global or function)
//! func       := "func" "@" NAME "(" ["%"NAME ("," "%"NAME)*] ")" "{" body "}"
//! body       := (LABEL ":" | inst | term)*
//! inst       := "%" NAME "=" "alloc" ("stack"|"heap") NAME ["fields" INT] ["array"]
//!             | "%" NAME "=" "funaddr" "@" NAME
//!             | "%" NAME "=" "phi" operand ("," operand)*
//!             | "%" NAME "=" "copy" operand
//!             | "%" NAME "=" "gep" operand "," INT
//!             | "%" NAME "=" "load" operand
//!             | "%" NAME "=" "null"                // p may be null (allocates the null pseudo-object)
//!             | "store" operand "," operand        // store VALUE, POINTER (LLVM order: *ptr = value)
//!             | "free" operand                     // deallocate what the operand points to
//!             | ["%" NAME "="] "call" "@" NAME "(" [operand ("," operand)*] ")"
//!             | ["%" NAME "="] "icall" operand "(" [operand ("," operand)*] ")"
//! term       := "goto" LABEL
//!             | "br" LABEL ("," LABEL)+
//!             | "ret" [operand]
//! operand    := "%" NAME     // function-local value
//!             | "@" NAME     // global pointer
//! ```
//!
//! # Error recovery
//!
//! [`parse_program_all`] collects *every* diagnostic instead of stopping
//! at the first: a bad top-level line is skipped, a bad function header
//! skips that function's body, and an error inside a body abandons the
//! rest of that body and resumes at the next function. Diagnostics carry
//! 1-based line and column positions and are sorted by source position.
//! [`parse_program`] is the single-error convenience wrapper returning
//! the first diagnostic.
//!
//! # Examples
//!
//! ```
//! let prog = vsfs_ir::parse_program(r#"
//! global @g
//! func @main() {
//! entry:
//!   %p = alloc stack A fields 2
//!   %f1 = gep %p, 1
//!   store @g, %f1
//!   ret
//! }
//! "#)?;
//! assert_eq!(prog.globals.len(), 1);
//! # Ok::<(), vsfs_ir::ParseProgramError>(())
//! ```

// The parser's maps are keyed by identifier text from the program source,
// which a server client supplies in `load`/`edit` requests; they keep std's
// randomly keyed SipHash so a client cannot craft colliding names.
#![allow(clippy::disallowed_types)]

use crate::build::{GInitVal, ProgramBuilder};
use crate::ids::{BlockId, FuncId, ValueId};
use crate::program::Program;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An error produced while parsing the textual IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based column (character position) of the offending token;
    /// column 1 for errors that concern the whole line (name resolution,
    /// SSA violations, structural errors).
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseProgramError {}

type PResult<T> = Result<T, ParseProgramError>;

fn perr(line: usize, message: impl Into<String>) -> ParseProgramError {
    ParseProgramError { line, column: 1, message: message.into() }
}

fn perr_at(line: usize, column: usize, message: impl Into<String>) -> ParseProgramError {
    ParseProgramError { line, column, message: message.into() }
}

fn err<T>(line: usize, message: impl Into<String>) -> PResult<T> {
    Err(perr(line, message))
}

fn err_at<T>(line: usize, column: usize, message: impl Into<String>) -> PResult<T> {
    Err(perr_at(line, column, message))
}

/// Parses a textual IR program, stopping at the first diagnostic.
///
/// # Errors
///
/// Returns the source-position-wise first syntax or name-resolution
/// error. Use [`parse_program_all`] to collect every diagnostic. The
/// result is *not* verified; run [`crate::verify::verify`] for SSA
/// well-formedness checks.
pub fn parse_program(src: &str) -> PResult<Program> {
    parse_program_all(src).map_err(|mut diags| diags.remove(0))
}

/// Parses a textual IR program, collecting **all** diagnostics.
///
/// # Errors
///
/// Returns every syntax and name-resolution error found, sorted by
/// `(line, column)` and guaranteed non-empty. The parser recovers at
/// item granularity: a malformed top-level line is skipped, a malformed
/// function header skips that function, and the first error inside a
/// body abandons the rest of that body and resumes at the next
/// function.
pub fn parse_program_all(src: &str) -> Result<Program, Vec<ParseProgramError>> {
    Parser::new(src).run()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Local(String),  // %name
    Global(String), // @name
    Int(u32),
    Punct(char),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Local(s) => write!(f, "%{s}"),
            Tok::Global(s) => write!(f, "@{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Punct(c) => write!(f, "{c}"),
        }
    }
}

/// Tokenizes one line, tracking the 1-based start column of each token.
/// Returns `(tokens, columns, end_col)` where `end_col` is one past the
/// last token (used to anchor "end of line" diagnostics).
fn tokenize(line: &str, lineno: usize) -> PResult<(Vec<Tok>, Vec<usize>, usize)> {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    let chars: Vec<char> = line.chars().collect();
    let mut toks = Vec::new();
    let mut cols = Vec::new();
    let mut end_col = 1;
    let ident_char = |c: char| c.is_alphanumeric() || c == '_' || c == '.' || c == '$';
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i + 1; // 1-based column
        if c == '%' || c == '@' {
            i += 1;
            let mut s = String::new();
            while i < chars.len() && ident_char(chars[i]) {
                s.push(chars[i]);
                i += 1;
            }
            if s.is_empty() {
                return err_at(lineno, start, format!("expected a name after `{c}`"));
            }
            cols.push(start);
            toks.push(if c == '%' { Tok::Local(s) } else { Tok::Global(s) });
        } else if c.is_ascii_digit() {
            let mut n: u64 = 0;
            while i < chars.len() {
                if let Some(v) = chars[i].to_digit(10) {
                    n = n * 10 + v as u64;
                    if n > u32::MAX as u64 {
                        return err_at(lineno, start, "integer literal too large");
                    }
                    i += 1;
                } else {
                    break;
                }
            }
            cols.push(start);
            toks.push(Tok::Int(n as u32));
        } else if ident_char(c) {
            let mut s = String::new();
            while i < chars.len() && ident_char(chars[i]) {
                s.push(chars[i]);
                i += 1;
            }
            cols.push(start);
            toks.push(Tok::Ident(s));
        } else if "(){},=:".contains(c) {
            i += 1;
            cols.push(start);
            toks.push(Tok::Punct(c));
        } else {
            return err_at(lineno, start, format!("unexpected character `{c}`"));
        }
        end_col = i + 1;
    }
    Ok((toks, cols, end_col))
}

/// One tokenized source line.
struct Line {
    no: usize,
    toks: Vec<Tok>,
    cols: Vec<usize>,
    end_col: usize,
}

struct Parser {
    lines: Vec<Line>,
    last_line: usize,
    pb: ProgramBuilder,
    func_ids: HashMap<String, FuncId>,
    global_vals: HashMap<String, ValueId>,
    /// Collected diagnostics; non-empty means the parse failed.
    diags: Vec<ParseProgramError>,
    /// Header line numbers of functions whose declaration failed — their
    /// bodies must be skipped in pass 2 (the function was never declared,
    /// or is a duplicate whose body slot is already taken).
    skip_bodies: HashSet<usize>,
}

/// Cursor over one line's tokens.
struct Cur<'a> {
    toks: &'a [Tok],
    cols: &'a [usize],
    end_col: usize,
    pos: usize,
    line: usize,
}

impl<'a> Cur<'a> {
    fn new(l: &'a Line) -> Self {
        Cur { toks: &l.toks, cols: &l.cols, end_col: l.end_col, pos: 0, line: l.no }
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    /// Column of the token at the cursor (or just past the line's end).
    fn col_here(&self) -> usize {
        self.cols.get(self.pos).copied().unwrap_or(self.end_col)
    }

    /// Column of the most recently consumed token.
    fn col_prev(&self) -> usize {
        self.cols.get(self.pos.saturating_sub(1)).copied().unwrap_or(self.end_col)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            err_at(
                self.line,
                self.col_here(),
                format!("expected `{c}`, found {}", self.describe_here()),
            )
        }
    }

    fn expect_ident(&mut self) -> PResult<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => err_at(
                self.line,
                self.col_prev(),
                format!("expected an identifier, found {}", self.describe_prev()),
            ),
        }
    }

    fn expect_local(&mut self) -> PResult<&'a str> {
        match self.next() {
            Some(Tok::Local(s)) => Ok(s),
            _ => err_at(
                self.line,
                self.col_prev(),
                format!("expected `%name`, found {}", self.describe_prev()),
            ),
        }
    }

    fn expect_global(&mut self) -> PResult<&'a str> {
        match self.next() {
            Some(Tok::Global(s)) => Ok(s),
            _ => err_at(
                self.line,
                self.col_prev(),
                format!("expected `@name`, found {}", self.describe_prev()),
            ),
        }
    }

    fn expect_int(&mut self) -> PResult<u32> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(*i),
            _ => err_at(
                self.line,
                self.col_prev(),
                format!("expected an integer, found {}", self.describe_prev()),
            ),
        }
    }

    fn expect_end(&self) -> PResult<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            err_at(
                self.line,
                self.col_here(),
                format!("trailing tokens starting at {}", self.describe_here()),
            )
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of line".to_string(),
        }
    }

    fn describe_prev(&self) -> String {
        match self.toks.get(self.pos.saturating_sub(1)) {
            Some(t) => format!("`{t}`"),
            None => "end of line".to_string(),
        }
    }
}

impl Parser {
    fn new(src: &str) -> Self {
        let mut lines = Vec::new();
        let mut diags = Vec::new();
        let mut last_line = 0;
        for (i, raw) in src.lines().enumerate() {
            last_line = i + 1;
            match tokenize(raw, i + 1) {
                Ok((toks, cols, end_col)) => {
                    if !toks.is_empty() {
                        lines.push(Line { no: i + 1, toks, cols, end_col });
                    }
                }
                // A lexically broken line is diagnosed and dropped; the
                // parse continues on the lines that did tokenize.
                Err(e) => diags.push(e),
            }
        }
        Parser {
            lines,
            last_line,
            pb: ProgramBuilder::new(),
            func_ids: HashMap::new(),
            global_vals: HashMap::new(),
            diags,
            skip_bodies: HashSet::new(),
        }
    }

    fn run(mut self) -> Result<Program, Vec<ParseProgramError>> {
        self.pass_declarations();
        self.pass_bodies();
        if !self.diags.is_empty() {
            let mut diags = self.diags;
            diags.sort_by_key(|d| (d.line, d.column));
            return Err(diags);
        }
        let last_line = self.last_line;
        self.pb.finish().map_err(|e| vec![perr(last_line, e.to_string())])
    }

    /// Pass 1: declare globals and function signatures so bodies can
    /// forward-reference them. Declaration errors are recorded and the
    /// parse moves on to the next top-level item.
    fn pass_declarations(&mut self) {
        let mut i = 0;
        while i < self.lines.len() {
            let first = self.lines[i].toks.first().cloned();
            match first {
                Some(Tok::Ident(k)) if k == "global" => {
                    if let Err(e) = self.decl_global(i) {
                        self.diags.push(e);
                    }
                    i += 1;
                }
                Some(Tok::Ident(k)) if k == "func" => {
                    let header = i;
                    if let Err(e) = self.decl_func(i) {
                        self.diags.push(e);
                        self.skip_bodies.insert(self.lines[header].no);
                    }
                    // Skip to the closing brace (whether or not the
                    // header declared cleanly).
                    i += 1;
                    while i < self.lines.len() {
                        if self.lines[i].toks == [Tok::Punct('}')] {
                            break;
                        }
                        i += 1;
                    }
                    if i >= self.lines.len() {
                        let name = match self.lines[header].toks.get(1) {
                            Some(Tok::Global(n)) => format!("@{n}"),
                            _ => "<anonymous>".to_string(),
                        };
                        self.diags.push(perr(
                            self.lines[header].no,
                            format!("function `{name}` missing closing `}}`"),
                        ));
                        self.skip_bodies.insert(self.lines[header].no);
                    } else {
                        i += 1;
                    }
                }
                _ => {
                    // ginit lines handled in pass 2; skip everything else.
                    i += 1;
                }
            }
        }
    }

    fn decl_global(&mut self, i: usize) -> PResult<()> {
        let line = &self.lines[i];
        let mut cur = Cur::new(line);
        cur.next(); // global
        let name = cur.expect_global()?.to_string();
        let mut fields = 1;
        let mut array = false;
        loop {
            match cur.peek() {
                Some(Tok::Ident(w)) if w == "fields" => {
                    cur.next();
                    fields = cur.expect_int()?;
                }
                Some(Tok::Ident(w)) if w == "array" => {
                    cur.next();
                    array = true;
                }
                _ => break,
            }
        }
        cur.expect_end()?;
        if self.global_vals.contains_key(&name) {
            return err(line.no, format!("duplicate global `@{name}`"));
        }
        let (v, _) = self.pb.add_global(&name, fields, array);
        self.global_vals.insert(name, v);
        Ok(())
    }

    fn decl_func(&mut self, i: usize) -> PResult<()> {
        let line = &self.lines[i];
        let mut cur = Cur::new(line);
        cur.next(); // func
        let name = cur.expect_global()?.to_string();
        cur.expect_punct('(')?;
        let mut params = Vec::new();
        if !cur.eat_punct(')') {
            loop {
                params.push(cur.expect_local()?.to_string());
                if cur.eat_punct(')') {
                    break;
                }
                cur.expect_punct(',')?;
            }
        }
        cur.expect_punct('{')?;
        cur.expect_end()?;
        if self.func_ids.contains_key(&name) {
            return err(line.no, format!("duplicate function `@{name}`"));
        }
        let f = self.pb.declare_function(&name, params.len());
        for (pi, pname) in params.iter().enumerate() {
            self.pb.rename_param(f, pi, pname);
        }
        self.func_ids.insert(name, f);
        Ok(())
    }

    /// Pass 2: parse ginits and function bodies. An error inside a body
    /// abandons the rest of that body; parsing resumes at the next
    /// top-level item.
    fn pass_bodies(&mut self) {
        let lines = std::mem::take(&mut self.lines);
        let mut i = 0;
        while i < lines.len() {
            let line = &lines[i];
            match line.toks.first() {
                Some(Tok::Ident(k)) if k == "ginit" => {
                    if let Err(e) = self.parse_ginit(line) {
                        self.diags.push(e);
                    }
                    i += 1;
                }
                Some(Tok::Ident(k)) if k == "global" => {
                    i += 1; // handled in pass 1
                }
                Some(Tok::Ident(k)) if k == "func" => {
                    // Find body extent.
                    let mut end = i + 1;
                    while end < lines.len() && lines[end].toks != [Tok::Punct('}')] {
                        end += 1;
                    }
                    if !self.skip_bodies.contains(&line.no) {
                        if let Err(e) = self.parse_body(line, &lines[i + 1..end]) {
                            self.diags.push(e);
                        }
                    }
                    i = end + 1;
                }
                _ => {
                    let cur = Cur::new(line);
                    self.diags.push(perr_at(
                        line.no,
                        cur.col_here(),
                        format!("unexpected top-level line starting with {}", cur.describe_here()),
                    ));
                    i += 1;
                }
            }
        }
    }

    fn parse_ginit(&mut self, line: &Line) -> PResult<()> {
        let mut cur = Cur::new(line);
        cur.next(); // ginit
        let g = cur.expect_global()?;
        let gv = *self
            .global_vals
            .get(g)
            .ok_or_else(|| perr(line.no, format!("unknown global `@{g}`")))?;
        cur.expect_punct(',')?;
        let src = cur.expect_global()?;
        cur.expect_end()?;
        let val = if let Some(&v) = self.global_vals.get(src) {
            GInitVal::Global(v)
        } else if let Some(&f) = self.func_ids.get(src) {
            GInitVal::Func(f)
        } else {
            return err(line.no, format!("unknown global or function `@{src}`"));
        };
        self.pb.ginit(gv, val);
        Ok(())
    }

    fn parse_body(&mut self, header: &Line, body: &[Line]) -> PResult<()> {
        let mut cur = Cur::new(header);
        cur.next(); // func
        let fname = cur.expect_global()?.to_string();
        let Some(&func) = self.func_ids.get(&fname) else {
            return Ok(()); // header never declared; already diagnosed
        };

        // Pre-scan labels.
        let is_label = |l: &Line| {
            l.toks.len() == 2 && matches!(&l.toks[0], Tok::Ident(_)) && l.toks[1] == Tok::Punct(':')
        };
        let mut fb = self.pb.build_function(func);
        let mut block_ids: HashMap<String, BlockId> = HashMap::new();
        if body.is_empty() || !is_label(&body[0]) {
            return err(
                header.no,
                format!("function `@{fname}` body must start with a block label"),
            );
        }
        for l in body {
            if is_label(l) {
                let Tok::Ident(name) = &l.toks[0] else { unreachable!() };
                if block_ids.contains_key(name) {
                    return err(l.no, format!("duplicate block label `{name}`"));
                }
                block_ids.insert(name.clone(), fb.block(name));
            }
        }

        // Local value scope: params first.
        let mut locals: HashMap<String, ValueId> = HashMap::new();
        let nparams = {
            let mut c = Cur::new(header);
            c.next();
            c.next();
            c.expect_punct('(')?;
            let mut names = Vec::new();
            if !c.eat_punct(')') {
                loop {
                    names.push(c.expect_local()?.to_string());
                    if c.eat_punct(')') {
                        break;
                    }
                    c.expect_punct(',')?;
                }
            }
            names
        };
        for (pi, pname) in nparams.iter().enumerate() {
            if locals.insert(pname.clone(), fb.param(pi)).is_some() {
                return err(header.no, format!("duplicate parameter `%{pname}`"));
            }
        }

        let globals = &self.global_vals;
        let func_ids = &self.func_ids;
        let lookup =
            |locals: &HashMap<String, ValueId>, t: &Tok, lineno: usize| -> PResult<ValueId> {
                match t {
                    Tok::Local(n) => locals
                        .get(n)
                        .copied()
                        .ok_or_else(|| perr(lineno, format!("use of undefined value `%{n}`"))),
                    Tok::Global(n) => globals
                        .get(n)
                        .copied()
                        .ok_or_else(|| perr(lineno, format!("unknown global `@{n}`"))),
                    other => err(lineno, format!("expected an operand, found `{other}`")),
                }
            };

        let mut in_block = false;
        let mut pending_phis: Vec<(crate::ids::InstId, usize, String, usize)> = Vec::new();
        for l in body {
            let mut c = Cur::new(l);
            if is_label(l) {
                let Tok::Ident(name) = &l.toks[0] else { unreachable!() };
                fb.switch_to(block_ids[name]);
                in_block = true;
                continue;
            }
            if !in_block {
                return err(l.no, "instruction outside of a block (missing label?)");
            }
            let span_mark = fb.next_inst();
            let span_col = l.cols.first().copied().unwrap_or(1) as u32;
            let define = |fbv: &mut HashMap<String, ValueId>,
                          name: &str,
                          v: ValueId,
                          lineno: usize|
             -> PResult<()> {
                if fbv.insert(name.to_string(), v).is_some() {
                    return err(
                        lineno,
                        format!("value `%{name}` assigned twice (IR must be in SSA form)"),
                    );
                }
                Ok(())
            };
            match c.peek() {
                Some(Tok::Local(_)) => {
                    let dst = c.expect_local()?.to_string();
                    c.expect_punct('=')?;
                    let op = c.expect_ident()?;
                    match op {
                        "alloc" => {
                            let kind = c.expect_ident()?;
                            let obj = c.expect_ident()?.to_string();
                            let mut fields = 1;
                            let mut array = false;
                            loop {
                                match c.peek() {
                                    Some(Tok::Ident(w)) if w == "fields" => {
                                        c.next();
                                        fields = c.expect_int()?;
                                    }
                                    Some(Tok::Ident(w)) if w == "array" => {
                                        c.next();
                                        array = true;
                                    }
                                    _ => break,
                                }
                            }
                            c.expect_end()?;
                            let v = match kind {
                                "stack" => fb.alloc_stack(&dst, &obj, fields, array),
                                "heap" => fb.alloc_heap(&dst, &obj, fields, array),
                                other => {
                                    return err(
                                        l.no,
                                        format!(
                                        "unknown alloc kind `{other}` (expected `stack` or `heap`)"
                                    ),
                                    )
                                }
                            };
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "funaddr" => {
                            let fname = c.expect_global()?;
                            c.expect_end()?;
                            let target = *func_ids.get(fname).ok_or_else(|| {
                                perr(l.no, format!("unknown function `@{fname}`"))
                            })?;
                            let v = fb.funaddr(&dst, target);
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "phi" => {
                            // Phi operands may forward-reference values
                            // defined later (loop back-edges): collect
                            // names, emit with placeholders, patch after
                            // the whole body has been parsed.
                            let mut ops: Vec<Tok> = Vec::new();
                            loop {
                                let t = c
                                    .next()
                                    .cloned()
                                    .ok_or_else(|| perr(l.no, "phi needs at least one operand"))?;
                                ops.push(t);
                                if !c.eat_punct(',') {
                                    break;
                                }
                            }
                            c.expect_end()?;
                            let mut srcs = Vec::with_capacity(ops.len());
                            let mut unresolved: Vec<(usize, String)> = Vec::new();
                            for (idx, t) in ops.iter().enumerate() {
                                match t {
                                    Tok::Local(n) if !locals.contains_key(n) => {
                                        unresolved.push((idx, n.clone()));
                                        srcs.push(ValueId::new(u32::MAX)); // placeholder
                                    }
                                    _ => srcs.push(lookup(&locals, t, l.no)?),
                                }
                            }
                            let v = fb.phi(&dst, &srcs);
                            // Self-reference placeholders until patched.
                            let inst = fb.def_inst_of(v).expect("phi defines its dst");
                            for &(idx, _) in &unresolved {
                                fb.patch_phi_operand(inst, idx, v);
                            }
                            for (idx, name) in unresolved {
                                pending_phis.push((inst, idx, name, l.no));
                            }
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "copy" => {
                            let t = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "copy needs an operand"))?;
                            c.expect_end()?;
                            let src = lookup(&locals, &t, l.no)?;
                            let v = fb.copy(&dst, src);
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "gep" => {
                            let t = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "gep needs an operand"))?;
                            let base = lookup(&locals, &t, l.no)?;
                            c.expect_punct(',')?;
                            let off = c.expect_int()?;
                            c.expect_end()?;
                            let v = fb.gep(&dst, base, off);
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "load" => {
                            let t = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "load needs an operand"))?;
                            c.expect_end()?;
                            let addr = lookup(&locals, &t, l.no)?;
                            let v = fb.load(&dst, addr);
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "null" => {
                            c.expect_end()?;
                            let v = fb.null_ptr(&dst);
                            define(&mut locals, &dst, v, l.no)?;
                        }
                        "call" | "icall" => {
                            let v = self_parse_call(
                                &mut c,
                                op,
                                Some(&dst),
                                &mut fb,
                                &locals,
                                func_ids,
                                globals,
                                l.no,
                            )?;
                            define(
                                &mut locals,
                                &dst,
                                v.expect("call with dst returns a value"),
                                l.no,
                            )?;
                        }
                        other => return err(l.no, format!("unknown instruction `{other}`")),
                    }
                }
                Some(Tok::Ident(k)) => {
                    let k = k.clone();
                    c.next();
                    match k.as_str() {
                        "store" => {
                            let tv = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "store needs two operands"))?;
                            let val = lookup(&locals, &tv, l.no)?;
                            c.expect_punct(',')?;
                            let tp = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "store needs a pointer operand"))?;
                            let addr = lookup(&locals, &tp, l.no)?;
                            c.expect_end()?;
                            fb.store(val, addr);
                        }
                        "free" => {
                            let t = c
                                .next()
                                .cloned()
                                .ok_or_else(|| perr(l.no, "free needs an operand"))?;
                            let ptr = lookup(&locals, &t, l.no)?;
                            c.expect_end()?;
                            fb.free(ptr);
                        }
                        "call" | "icall" => {
                            self_parse_call(
                                &mut c, &k, None, &mut fb, &locals, func_ids, globals, l.no,
                            )?;
                        }
                        "goto" => {
                            let label = c.expect_ident()?;
                            c.expect_end()?;
                            let target = *block_ids.get(label).ok_or_else(|| {
                                perr(l.no, format!("unknown block label `{label}`"))
                            })?;
                            fb.goto(target);
                            in_block = false;
                        }
                        "br" => {
                            let mut targets = Vec::new();
                            loop {
                                let label = c.expect_ident()?;
                                targets.push(*block_ids.get(label).ok_or_else(|| {
                                    perr(l.no, format!("unknown block label `{label}`"))
                                })?);
                                if !c.eat_punct(',') {
                                    break;
                                }
                            }
                            c.expect_end()?;
                            if targets.len() < 2 {
                                return err(
                                    l.no,
                                    "br needs at least two targets; use goto for one",
                                );
                            }
                            fb.br(&targets);
                            in_block = false;
                        }
                        "ret" => {
                            let ret = match c.next() {
                                None => None,
                                Some(t) => {
                                    let t = t.clone();
                                    c.expect_end()?;
                                    Some(lookup(&locals, &t, l.no)?)
                                }
                            };
                            fb.ret(ret);
                            in_block = false;
                        }
                        other => return err(l.no, format!("unknown instruction `{other}`")),
                    }
                }
                _ => {
                    return err_at(
                        l.no,
                        c.col_here(),
                        format!("cannot parse line starting with {}", c.describe_here()),
                    )
                }
            }
            fb.set_spans_since(span_mark, l.no as u32, span_col);
        }
        for (inst, idx, name, lineno) in pending_phis {
            let v = *locals
                .get(&name)
                .ok_or_else(|| perr(lineno, format!("use of undefined value `%{name}` in phi")))?;
            fb.patch_phi_operand(inst, idx, v);
        }
        Ok(())
    }
}

/// Parses the tail of a `call`/`icall` after the mnemonic token.
#[allow(clippy::too_many_arguments)]
fn self_parse_call(
    c: &mut Cur<'_>,
    op: &str,
    dst: Option<&str>,
    fb: &mut crate::build::FunctionBuilder<'_>,
    locals: &HashMap<String, ValueId>,
    func_ids: &HashMap<String, FuncId>,
    globals: &HashMap<String, ValueId>,
    lineno: usize,
) -> PResult<Option<ValueId>> {
    let lookup = |t: &Tok| -> PResult<ValueId> {
        match t {
            Tok::Local(n) => locals
                .get(n)
                .copied()
                .ok_or_else(|| perr(lineno, format!("use of undefined value `%{n}`"))),
            Tok::Global(n) => globals
                .get(n)
                .copied()
                .ok_or_else(|| perr(lineno, format!("unknown global `@{n}`"))),
            other => err(lineno, format!("expected an operand, found `{other}`")),
        }
    };
    enum Target {
        Direct(FuncId),
        Indirect(ValueId),
    }
    let target = if op == "call" {
        let name = c.expect_global()?;
        Target::Direct(
            *func_ids
                .get(name)
                .ok_or_else(|| perr(lineno, format!("unknown function `@{name}`")))?,
        )
    } else {
        let t = c
            .next()
            .cloned()
            .ok_or_else(|| perr(lineno, "icall needs a function-pointer operand"))?;
        Target::Indirect(lookup(&t)?)
    };
    c.expect_punct('(')?;
    let mut args = Vec::new();
    if !c.eat_punct(')') {
        loop {
            let t = c.next().cloned().ok_or_else(|| perr(lineno, "unterminated argument list"))?;
            args.push(lookup(&t)?);
            if c.eat_punct(')') {
                break;
            }
            c.expect_punct(',')?;
        }
    }
    c.expect_end()?;
    Ok(match target {
        Target::Direct(f) => fb.call(dst, f, &args),
        Target::Indirect(v) => fb.icall(dst, v, &args),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Callee, InstKind};

    #[test]
    fn parses_figure1_style_program() {
        // The paper's Figure 1: p = &a; ...; *p = q; x = *p; style code.
        let prog = parse_program(
            r#"
            // Figure-1-like example
            func @main() {
            entry:
              %p = alloc stack a
              %q = alloc heap b
              store %q, %p          // *p = q
              %x = load %p          // x = *p
              br left, right
            left:
              %y = copy %x
              goto join
            right:
              %z = copy %x
              goto join
            join:
              %w = phi %y, %z
              ret %w
            }
            "#,
        )
        .unwrap();
        assert_eq!(prog.functions.len(), 1);
        let main = prog.entry_function();
        assert_eq!(prog.functions[main].blocks.len(), 4);
        // funentry, alloc, alloc, store, load in entry
        let entry = prog.functions[main].entry_block();
        assert_eq!(prog.blocks[entry].insts.len(), 5);
        assert_eq!(prog.objects.len(), 2);
    }

    #[test]
    fn parses_calls_and_globals() {
        let prog = parse_program(
            r#"
            global @g fields 2
            global @h array
            ginit @g, @h
            ginit @h, @callee

            func @callee(%x) {
            entry:
              ret %x
            }

            func @main() {
            entry:
              %fp = funaddr @callee
              %r1 = call @callee(@g)
              %r2 = icall %fp(%r1)
              ret
            }
            "#,
        )
        .unwrap();
        assert_eq!(prog.globals.len(), 2);
        assert_eq!(prog.functions.len(), 2);
        let main = prog.entry_function();
        let callee = prog.function_by_name("callee").unwrap();
        let calls: Vec<&InstKind> = prog
            .func_insts(main)
            .map(|i| &prog.insts[i].kind)
            .filter(|k| matches!(k, InstKind::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(
            matches!(calls[0], InstKind::Call { callee: Callee::Direct(f), .. } if *f == callee)
        );
        assert!(matches!(calls[1], InstKind::Call { callee: Callee::Indirect(_), .. }));
        // ginit lowering put stores into main's entry.
        let entry = prog.functions[main].entry_block();
        let stores =
            prog.blocks[entry].insts.iter().filter(|&&i| prog.insts[i].kind.is_store()).count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn forward_function_references_work() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              call @later()
              ret
            }
            func @later() {
            entry:
              ret
            }
            "#,
        )
        .unwrap();
        assert_eq!(prog.functions.len(), 2);
    }

    #[test]
    fn rejects_double_assignment() {
        let e = parse_program(
            r#"
            func @main() {
            entry:
              %p = alloc stack a
              %p = alloc stack b
              ret
            }
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("assigned twice"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn rejects_undefined_value() {
        let e = parse_program(
            r#"
            func @main() {
            entry:
              %x = load %nope
              ret
            }
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("undefined value"), "{e}");
    }

    #[test]
    fn rejects_unknown_label() {
        let e = parse_program(
            r#"
            func @main() {
            entry:
              goto nowhere
            }
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown block label"), "{e}");
    }

    #[test]
    fn rejects_unknown_callee() {
        let e = parse_program(
            r#"
            func @main() {
            entry:
              call @ghost()
              ret
            }
            "#,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn rejects_missing_brace() {
        let e = parse_program("func @main() {\nentry:\n  ret\n").unwrap_err();
        assert!(e.message.contains("missing closing"), "{e}");
    }

    #[test]
    fn gep_with_fields() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              %s = alloc stack S fields 3
              %f2 = gep %s, 2
              store %s, %f2
              ret
            }
            "#,
        )
        .unwrap();
        // base S + 2 field objects
        assert_eq!(prog.objects.len(), 3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::inst::InstKind;

    #[test]
    fn globals_usable_as_any_operand() {
        let prog = parse_program(
            r#"
            global @g
            global @h
            func @take(%a, %b) {
            entry:
              ret %a
            }
            func @main() {
            entry:
              store @g, @h
              %x = load @g
              %y = copy @h
              %f = gep @g, 1
              %r = call @take(@g, @h)
              ret
            }
            "#,
        )
        .unwrap();
        assert_eq!(prog.globals.len(), 2);
        crate::verify::verify(&prog).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let prog = parse_program(
            "\n// leading comment\nfunc @main() { // trailing\nentry:\n// mid\n  ret\n}\n// post\n",
        )
        .unwrap();
        assert_eq!(prog.functions.len(), 1);
    }

    #[test]
    fn rejects_duplicate_globals_and_functions() {
        let e =
            parse_program("global @g\nglobal @g\nfunc @main() {\nentry:\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("duplicate global"), "{e}");
        let e = parse_program("func @f() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  ret\n}\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate function"), "{e}");
    }

    #[test]
    fn rejects_duplicate_block_labels_and_params() {
        let e =
            parse_program("func @main() {\nentry:\n  goto entry\nentry:\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("duplicate block label"), "{e}");
        let e = parse_program("func @main(%a, %a) {\nentry:\n  ret %a\n}\n").unwrap_err();
        assert!(e.message.contains("duplicate parameter"), "{e}");
    }

    #[test]
    fn ginit_accepts_functions_and_globals_only() {
        let e = parse_program("global @g\nginit @g, @nothing\nfunc @main() {\nentry:\n  ret\n}\n")
            .unwrap_err();
        assert!(e.message.contains("unknown global or function"), "{e}");
    }

    #[test]
    fn multiway_branch_parses() {
        let prog = parse_program(
            r#"
            func @main() {
            entry:
              br a, b, c
            a:
              goto done
            b:
              goto done
            c:
              goto done
            done:
              ret
            }
            "#,
        )
        .unwrap();
        let entry = prog.functions[prog.entry_function()].entry_block();
        assert_eq!(prog.blocks[entry].term.successors().len(), 3);
    }

    #[test]
    fn alloc_modifiers_parse_in_any_order() {
        let prog = parse_program(
            "func @main() {\nentry:\n  %a = alloc heap H array fields 4\n  %b = alloc stack S fields 2 array\n  ret\n}\n",
        )
        .unwrap();
        let h = prog.objects.iter().find(|o| o.name == "H").unwrap();
        assert!(h.is_array && h.num_fields == 4);
        let s = prog.objects.iter().find(|o| o.name == "S").unwrap();
        assert!(s.is_array && s.num_fields == 2);
        let _ = matches!(prog.insts.iter().next().unwrap().kind, InstKind::FunEntry { .. });
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    #[test]
    fn collects_one_diagnostic_per_broken_function() {
        // Three functions with one error each, plus a healthy one:
        // every error is reported, with ascending line numbers.
        let diags = parse_program_all(
            "func @a() {\nentry:\n  frobnicate\n  ret\n}\n\
             func @b() {\nentry:\n  %x = load %nope\n  ret\n}\n\
             func @c() {\nentry:\n  goto nowhere\n}\n\
             func @main() {\nentry:\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags[0].message.contains("unknown instruction"), "{}", diags[0]);
        assert!(diags[1].message.contains("undefined value"), "{}", diags[1]);
        assert!(diags[2].message.contains("unknown block label"), "{}", diags[2]);
        assert!(diags.windows(2).all(|w| w[0].line < w[1].line), "{diags:?}");
    }

    #[test]
    fn body_error_abandons_rest_of_that_body_only() {
        // Two errors inside @a: only the first is reported (the body is
        // abandoned); the error in @b is still found.
        let diags = parse_program_all(
            "func @a() {\nentry:\n  bogus_one\n  bogus_two\n  ret\n}\n\
             func @b() {\nentry:\n  %x = load %nope\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[1].message.contains("undefined value"), "{}", diags[1]);
    }

    #[test]
    fn broken_header_skips_body_without_cascading() {
        // @a's header is malformed; its body must not be parsed against
        // a half-declared function, and @main still parses cleanly.
        let diags = parse_program_all(
            "func @a(%x {\nentry:\n  ret %x\n}\nfunc @main() {\nentry:\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn duplicate_function_body_is_not_built_twice() {
        // The duplicate's body must be skipped (building it against the
        // first declaration would abort), leaving exactly one diagnostic.
        let diags =
            parse_program_all("func @f() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  ret\n}\n")
                .unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("duplicate function"), "{}", diags[0]);
    }

    #[test]
    fn tokenizer_errors_are_collected_and_positioned() {
        // `?` at column 12 of line 3; the undefined value on line 8 of
        // the next function is still reported.
        let diags = parse_program_all(
            "func @a() {\nentry:\n  %x = load ?\n  ret\n}\n\
             func @b() {\nentry:\n  %y = load %nope\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].column), (3, 13), "{}", diags[0]);
        assert!(diags[0].message.contains("unexpected character"), "{}", diags[0]);
        assert!(diags[1].message.contains("undefined value"), "{}", diags[1]);
    }

    #[test]
    fn syntax_errors_carry_token_columns() {
        // Missing `=` after `%p`: the diagnostic points at the token
        // where `=` was expected.
        let diags = parse_program_all("func @main() {\nentry:\n  %p alloc stack A\n  ret\n}\n")
            .unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].column, 6, "{}", diags[0]);
        assert!(diags[0].message.contains("expected `=`"), "{}", diags[0]);
        // Display renders line:column.
        assert!(diags[0].to_string().contains("line 3:6"), "{}", diags[0]);
    }

    #[test]
    fn first_sorted_diagnostic_is_the_single_error() {
        // parse_program returns the position-wise first diagnostic even
        // when a later-line error is discovered first (declaration pass
        // runs before bodies).
        let e = parse_program(
            "func @a() {\nentry:\n  bogus\n  ret\n}\nfunc @a() {\nentry:\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("unknown instruction"), "{e}");
    }
}
