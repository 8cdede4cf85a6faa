//! A small recursive-descent parser over the [`lexer`](crate::lexer)
//! token stream.
//!
//! The vendored dependency set has no `syn`, so this parser exists to give
//! the interprocedural rules just enough structure: items (fns, impls,
//! traits, mods) with their attributes, fn bodies as statement lists that
//! preserve calls, branches, loops and `unsafe` blocks, and exact token
//! spans so lexical sub-scans (banned identifiers, wall-clock reads) can
//! run over a single fn's body.
//!
//! It is *not* a full Rust grammar. Everything it does not model (struct
//! fields, type aliases, expressions that contain no calls) is consumed as
//! an opaque [`ItemKind::Plain`] item or skipped token-by-token — but the
//! parse is total: every token of every file belongs to exactly one
//! top-level item, and the round-trip test in `tests/parser_roundtrip.rs`
//! asserts that no item of the workspace corpus falls back to the
//! `other` kind.

use crate::lexer::{Lexed, Tok, TokKind};

/// Parsed file: the top-level item list. Item spans tile the token stream
/// exactly (item N+1 starts where item N ends).
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (top-level or nested).
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Outer attributes, rendered with all whitespace removed:
    /// `cfg_attr(any(),dlsr::hot)`, `cfg(test)`, `inline(always)`.
    pub attrs: Vec<String>,
    /// Token index range `[start, end)` the item occupies.
    pub span: (usize, usize),
    /// Source line of the item's first token.
    pub line: usize,
}

/// Item kinds the rules care about; everything else is [`ItemKind::Plain`].
#[derive(Debug)]
pub enum ItemKind {
    /// A function (free, method, or trait signature without a body).
    Fn(FnItem),
    /// An item that contains further items: `mod`, `trait`, or `impl`.
    Container {
        /// `"mod"`, `"trait"` or `"impl"`.
        kw: &'static str,
        /// Module/trait name, or the implemented type's head identifier
        /// (`Vec` for `impl<T> Foo for Vec<T>`); empty when unnameable.
        name: String,
        /// For `impl Trait for Type`, the trait's head identifier.
        trait_name: Option<String>,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// An item consumed without structure; `kw` records what it was
    /// (`use`, `struct`, `macro_rules`, `attr`, ... or `other` for the
    /// give-up path the round-trip test forbids).
    Plain {
        /// The leading keyword (or pseudo-kind) of the consumed item.
        kw: &'static str,
    },
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Parsed body, `None` for bodyless signatures (trait methods,
    /// foreign fns).
    pub body: Option<Block>,
    /// Token index range `[start, end)` of the body *inside* the braces
    /// (empty range when there is no body).
    pub body_span: (usize, usize),
}

/// A statement list (fn body, branch arm, loop body, unsafe block).
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement-level construct the dataflow rules consume.
#[derive(Debug)]
pub enum Stmt {
    /// A call expression.
    Call(Call),
    /// An `if`/`else` chain or a `match`: control flow that selects one of
    /// `arms`. An `if` without `else` carries an implicit empty arm.
    Branch {
        /// True when the condition / scrutinee / a guard mentions a
        /// rank-valued identifier (`rank`, `*_rank`, `rank_*`) — the
        /// signal the static collective-order check keys on.
        rank_dep: bool,
        /// The alternative bodies.
        arms: Vec<Block>,
        /// Line of the `if`/`match` keyword.
        line: usize,
    },
    /// A `loop`/`while`/`for` body.
    Loop {
        /// True when the loop header mentions a rank-valued identifier.
        rank_dep: bool,
        /// The loop body.
        body: Block,
        /// Line of the loop keyword.
        line: usize,
    },
    /// An `unsafe { ... }` block.
    Unsafe {
        /// Line of the `unsafe` keyword.
        line: usize,
        /// The block body.
        body: Block,
    },
    /// A nested item (fn inside fn, `use`, nested `impl`, ...).
    Item(Item),
}

/// A call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name: last path segment for `a::b::f(...)`, the method name
    /// for `.f(...)`.
    pub name: String,
    /// For path calls, the segment before the name (`b` above, `Vec` for
    /// `Vec::new`); `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// True for method-call syntax `recv.f(...)`.
    pub method: bool,
    /// True for `self.f(...)` specifically.
    pub recv_self: bool,
    /// Source line of the called name.
    pub line: usize,
}

/// Does this identifier look rank-valued? The collective-order check
/// treats control flow over such values as potentially rank-divergent.
pub fn is_rank_ident(text: &str) -> bool {
    text == "rank" || text.starts_with("rank_") || text.ends_with("_rank")
}

/// Parse one lexed file.
pub fn parse(lexed: &Lexed) -> Ast {
    let mut p = Parser {
        toks: &lexed.toks,
        pos: 0,
    };
    let items = p.items_until_close(false);
    Ast { items }
}

/// Render the attribute starting at token `pos` (`#[...]` or `#![...]`)
/// with all whitespace removed (`cfg_attr(any(),dlsr::hot)`, `cfg(test)`),
/// and return the index just past its closing `]`.
pub fn render_attr(toks: &[Tok], mut pos: usize) -> (String, usize) {
    let text = |p: usize| toks.get(p).map_or("", |t| t.text.as_str());
    if text(pos) == "#" {
        pos += 1;
    }
    if text(pos) == "!" {
        pos += 1;
    }
    let mut out = String::new();
    if text(pos) == "[" {
        pos += 1;
        let mut depth = 1usize;
        while pos < toks.len() {
            match text(pos) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        pos += 1;
                        break;
                    }
                }
                _ => {}
            }
            out.push_str(text(pos));
            pos += 1;
        }
    }
    (out, pos)
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn cur(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn cur_text(&self) -> &'a str {
        self.toks
            .get(self.pos)
            .map(|t| t.text.as_str())
            .unwrap_or("")
    }

    fn peek_text(&self, ahead: usize) -> &'a str {
        self.toks
            .get(self.pos + ahead)
            .map(|t| t.text.as_str())
            .unwrap_or("")
    }

    fn cur_line(&self) -> usize {
        self.toks.get(self.pos).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.cur_text() == text {
            self.bump();
            true
        } else {
            false
        }
    }

    /// `::` is two adjacent `:` tokens.
    fn at_path_sep(&self) -> bool {
        self.cur_text() == ":" && self.peek_text(1) == ":"
    }

    /// Items until end of stream (`inside == false`) or until a `}`
    /// closing the container (`inside == true`; the `}` is not consumed).
    fn items_until_close(&mut self, inside: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.at_end() {
            if inside && self.cur_text() == "}" {
                break;
            }
            items.push(self.parse_item());
        }
        items
    }

    /// Parse one item starting at the current token. Always makes
    /// progress.
    fn parse_item(&mut self) -> Item {
        let start = self.pos;
        let line = self.cur_line();
        let mut attrs = Vec::new();

        // Leading attributes. An inner attribute (`#![...]`) attaches to
        // the enclosing scope, not a following item: emit it on its own.
        while self.cur_text() == "#" {
            let inner = self.peek_text(1) == "!";
            let rendered = self.parse_attr();
            if inner && attrs.is_empty() {
                return Item {
                    kind: ItemKind::Plain { kw: "attr" },
                    attrs: vec![rendered],
                    span: (start, self.pos),
                    line,
                };
            }
            attrs.push(rendered);
        }

        // Qualifiers before the deciding keyword.
        loop {
            match self.cur_text() {
                "pub" => {
                    self.bump();
                    if self.cur_text() == "(" {
                        self.skip_balanced("(", ")");
                    }
                }
                "default" | "async" => self.bump(),
                "unsafe" => {
                    self.bump();
                }
                "const" => {
                    // `const fn` / `const unsafe fn` are qualifiers; a
                    // `const NAME: ...` item ends at `;`.
                    match self.peek_text(1) {
                        "fn" | "unsafe" | "extern" | "async" => self.bump(),
                        _ => {
                            self.skip_to_semi();
                            return self.finish(
                                start,
                                line,
                                attrs,
                                ItemKind::Plain { kw: "const" },
                            );
                        }
                    }
                }
                "extern" => {
                    self.bump();
                    if self.cur_text() == "crate" {
                        self.skip_to_semi();
                        return self.finish(start, line, attrs, ItemKind::Plain { kw: "extern" });
                    }
                    if self.cur().is_some_and(|t| t.kind == TokKind::Literal) {
                        self.bump(); // ABI string
                    }
                    if self.cur_text() == "{" {
                        self.skip_balanced("{", "}");
                        return self.finish(start, line, attrs, ItemKind::Plain { kw: "extern" });
                    }
                }
                _ => break,
            }
        }

        let kind = match self.cur_text() {
            "fn" => {
                let f = self.parse_fn();
                ItemKind::Fn(f)
            }
            "mod" => {
                self.bump();
                let name = self.take_ident();
                if self.eat(";") {
                    ItemKind::Plain { kw: "mod" }
                } else {
                    self.eat("{");
                    let items = self.items_until_close(true);
                    self.eat("}");
                    ItemKind::Container {
                        kw: "mod",
                        name,
                        trait_name: None,
                        items,
                    }
                }
            }
            "trait" => {
                self.bump();
                let name = self.take_ident();
                self.skip_header_to_brace();
                if self.eat("{") {
                    let items = self.items_until_close(true);
                    self.eat("}");
                    ItemKind::Container {
                        kw: "trait",
                        name,
                        trait_name: None,
                        items,
                    }
                } else {
                    // `trait Alias = ...;` or malformed: already consumed
                    // to `;` by the header skip.
                    ItemKind::Plain { kw: "trait" }
                }
            }
            "impl" => {
                self.bump();
                let (name, trait_name) = self.parse_impl_header();
                if self.eat("{") {
                    let items = self.items_until_close(true);
                    self.eat("}");
                    ItemKind::Container {
                        kw: "impl",
                        name,
                        trait_name,
                        items,
                    }
                } else {
                    ItemKind::Plain { kw: "impl" }
                }
            }
            "struct" | "enum" | "union" => {
                let kw = if self.cur_text() == "struct" {
                    "struct"
                } else if self.cur_text() == "enum" {
                    "enum"
                } else {
                    "union"
                };
                self.bump();
                self.skip_struct_like();
                ItemKind::Plain { kw }
            }
            "use" => {
                self.skip_to_semi();
                ItemKind::Plain { kw: "use" }
            }
            "type" => {
                self.skip_to_semi();
                ItemKind::Plain { kw: "type" }
            }
            "static" => {
                self.skip_to_semi();
                ItemKind::Plain { kw: "static" }
            }
            "macro_rules" => {
                self.bump();
                self.eat("!");
                self.take_ident();
                self.skip_balanced("{", "}");
                ItemKind::Plain { kw: "macro_rules" }
            }
            ";" => {
                self.bump();
                ItemKind::Plain { kw: "semi" }
            }
            _ => {
                // Item-level macro invocation: `path ! delim`.
                if self.cur().is_some_and(|t| t.kind == TokKind::Ident) && self.macro_invocation() {
                    ItemKind::Plain { kw: "macro" }
                } else {
                    // Give-up path: consume one token so the parse always
                    // terminates. The round-trip test asserts the corpus
                    // never lands here.
                    self.bump();
                    ItemKind::Plain { kw: "other" }
                }
            }
        };
        self.finish(start, line, attrs, kind)
    }

    fn finish(&mut self, start: usize, line: usize, attrs: Vec<String>, kind: ItemKind) -> Item {
        // Guarantee progress even on degenerate input.
        if self.pos == start {
            self.bump();
        }
        Item {
            kind,
            attrs,
            span: (start, self.pos),
            line,
        }
    }

    /// At an ident: if it starts `path ! delim`, consume the whole macro
    /// invocation (plus a trailing `;` for `()`/`[]` delimiters) and
    /// return true; otherwise restore the position and return false.
    fn macro_invocation(&mut self) -> bool {
        let save = self.pos;
        while self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
            self.bump();
            if self.at_path_sep() {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }
        if !self.eat("!") {
            self.pos = save;
            return false;
        }
        match self.cur_text() {
            "(" => {
                self.skip_balanced("(", ")");
                self.eat(";");
            }
            "[" => {
                self.skip_balanced("[", "]");
                self.eat(";");
            }
            "{" => {
                self.skip_balanced("{", "}");
            }
            _ => {
                self.pos = save;
                return false;
            }
        }
        true
    }

    /// Consume `#[...]` / `#![...]` and render its inside (see
    /// [`render_attr`]).
    fn parse_attr(&mut self) -> String {
        let (out, end) = render_attr(self.toks, self.pos);
        self.pos = end;
        out
    }

    fn take_ident(&mut self) -> String {
        if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
            let s = self.cur_text().to_string();
            self.bump();
            s
        } else {
            String::new()
        }
    }

    /// Skip a balanced `open ... close` group (consumes both delimiters).
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if self.cur_text() != open {
            return;
        }
        self.bump();
        let mut depth = 1usize;
        while !self.at_end() && depth > 0 {
            let t = self.cur_text();
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skip to the `;` ending a simple item, honouring nested
    /// `()`/`[]`/`{}` groups (consumes the `;`).
    fn skip_to_semi(&mut self) {
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut brace = 0usize;
        while !self.at_end() {
            match self.cur_text() {
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "[" => bracket += 1,
                "]" => bracket = bracket.saturating_sub(1),
                "{" => brace += 1,
                "}" => {
                    if brace == 0 {
                        // Ran into the enclosing container's close: stop
                        // without consuming it.
                        return;
                    }
                    brace -= 1;
                }
                ";" if paren == 0 && bracket == 0 && brace == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a struct/enum/union definition body: ends at a depth-0 `;`
    /// (unit/tuple struct) or after a depth-0 `{...}` group.
    fn skip_struct_like(&mut self) {
        let mut angle = 0usize;
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut prev = "";
        while !self.at_end() {
            let t = self.cur_text();
            match t {
                "<" => angle += 1,
                ">" if prev != "-" => angle = angle.saturating_sub(1),
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "[" => bracket += 1,
                "]" => bracket = bracket.saturating_sub(1),
                ";" if angle == 0 && paren == 0 && bracket == 0 => {
                    self.bump();
                    return;
                }
                "{" if angle == 0 && paren == 0 && bracket == 0 => {
                    self.skip_balanced("{", "}");
                    return;
                }
                "}" => return, // enclosing close: malformed, bail
                _ => {}
            }
            prev = t;
            self.bump();
        }
    }

    /// Skip header tokens (bounds, where clauses) up to a depth-0 `{`,
    /// arrow-aware so `Fn() -> T` bounds do not corrupt the angle count.
    /// Stops *at* the `{` (or consumes a terminating `;`).
    fn skip_header_to_brace(&mut self) {
        let mut angle = 0usize;
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut prev = "";
        while !self.at_end() {
            let t = self.cur_text();
            match t {
                "<" => angle += 1,
                ">" if prev != "-" => angle = angle.saturating_sub(1),
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "[" => bracket += 1,
                "]" => bracket = bracket.saturating_sub(1),
                "{" if angle == 0 && paren == 0 && bracket == 0 => return,
                "}" => return,
                ";" if angle == 0 && paren == 0 && bracket == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            prev = t;
            self.bump();
        }
    }

    /// After `impl`: skip generics, then split the header at a depth-0
    /// `for` into trait and type parts. Returns `(type_name, trait_name)`.
    fn parse_impl_header(&mut self) -> (String, Option<String>) {
        if self.cur_text() == "<" {
            self.skip_generics();
        }
        let lo = self.pos;
        self.skip_header_to_brace();
        let hdr = &self.toks[lo..self.pos];
        let mut for_at = None;
        let mut angle = 0usize;
        let mut paren = 0usize;
        let mut prev = "";
        for (i, t) in hdr.iter().enumerate() {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" if prev != "-" => angle = angle.saturating_sub(1),
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "for" if angle == 0 && paren == 0 => {
                    for_at = Some(i);
                    break;
                }
                _ => {}
            }
            prev = t.text.as_str();
        }
        let head_ident = |toks: &[Tok]| -> String {
            let mut angle = 0usize;
            let mut paren = 0usize;
            let mut bracket = 0usize;
            let mut prev = "";
            let mut last = String::new();
            for t in toks {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" if prev != "-" => angle = angle.saturating_sub(1),
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "where" if angle == 0 && paren == 0 && bracket == 0 => break,
                    txt => {
                        if angle == 0
                            && paren == 0
                            && bracket == 0
                            && t.kind == TokKind::Ident
                            && txt != "dyn"
                            && txt != "mut"
                            && txt != "const"
                        {
                            last = txt.to_string();
                        }
                    }
                }
                prev = t.text.as_str();
            }
            last
        };
        match for_at {
            Some(i) => (head_ident(&hdr[i + 1..]), Some(head_ident(&hdr[..i]))),
            None => (head_ident(hdr), None),
        }
    }

    /// Skip a `<...>` generics group, arrow-aware.
    fn skip_generics(&mut self) {
        if self.cur_text() != "<" {
            return;
        }
        self.bump();
        let mut depth = 1usize;
        let mut prev = "<";
        while !self.at_end() && depth > 0 {
            let t = self.cur_text();
            if t == "<" {
                depth += 1;
            } else if t == ">" && prev != "-" {
                depth -= 1;
            }
            prev = t;
            self.bump();
        }
    }

    /// At the `fn` keyword.
    fn parse_fn(&mut self) -> FnItem {
        let line = self.cur_line();
        self.eat("fn");
        let name = self.take_ident();
        if self.cur_text() == "<" {
            self.skip_generics();
        }
        self.skip_balanced("(", ")");
        // Return type / where clause up to the body `{` or a `;`.
        self.skip_header_to_brace();
        if self.cur_text() != "{" {
            return FnItem {
                name,
                line,
                body: None,
                body_span: (self.pos, self.pos),
            };
        }
        self.bump();
        let lo = self.pos;
        let body = self.parse_stmts(Stop::Brace);
        let hi = self.pos.saturating_sub(1); // exclude the consumed `}`
        FnItem {
            name,
            line,
            body: Some(body),
            body_span: (lo, hi.max(lo)),
        }
    }

    /// Parse statements until the stop condition. `Stop::Brace` consumes
    /// the terminating `}`; `Stop::MatchArm` consumes a terminating
    /// depth-0 `,` but leaves a terminating `}` for the caller.
    fn parse_stmts(&mut self, stop: Stop) -> Block {
        let mut stmts = Vec::new();
        // Paren/bracket depth for the MatchArm `,` terminator only; brace
        // nesting is handled structurally (nested `{}` recurse).
        let mut pdepth = 0usize;
        while !self.at_end() {
            match self.cur_text() {
                "}" => {
                    if stop == Stop::Brace {
                        self.bump();
                    }
                    break;
                }
                "," if stop == Stop::MatchArm && pdepth == 0 => {
                    self.bump();
                    break;
                }
                "(" | "[" => {
                    pdepth += 1;
                    self.bump();
                }
                ")" | "]" => {
                    pdepth = pdepth.saturating_sub(1);
                    self.bump();
                }
                "{" => {
                    // Bare block / struct literal body: parse and splice.
                    self.bump();
                    let inner = self.parse_stmts(Stop::Brace);
                    stmts.extend(inner.stmts);
                }
                "if" => {
                    let s = self.parse_if_chain(&mut stmts);
                    stmts.push(s);
                }
                "match" => {
                    let s = self.parse_match(&mut stmts);
                    stmts.push(s);
                }
                "loop" => {
                    let line = self.cur_line();
                    self.bump();
                    if self.eat("{") {
                        let body = self.parse_stmts(Stop::Brace);
                        stmts.push(Stmt::Loop {
                            rank_dep: false,
                            body,
                            line,
                        });
                    }
                }
                "while" | "for" => {
                    let line = self.cur_line();
                    self.bump();
                    let (rank_dep, _) = self.scan_cond(&mut stmts);
                    if self.eat("{") {
                        let body = self.parse_stmts(Stop::Brace);
                        stmts.push(Stmt::Loop {
                            rank_dep,
                            body,
                            line,
                        });
                    }
                }
                "unsafe" => {
                    if self.peek_text(1) == "{" {
                        let line = self.cur_line();
                        self.bump();
                        self.bump();
                        let body = self.parse_stmts(Stop::Brace);
                        stmts.push(Stmt::Unsafe { line, body });
                    } else {
                        stmts.push(Stmt::Item(self.parse_item()));
                    }
                }
                "const" => {
                    if self.peek_text(1) == "{" {
                        // Inline-const block: splice.
                        self.bump();
                        self.bump();
                        let inner = self.parse_stmts(Stop::Brace);
                        stmts.extend(inner.stmts);
                    } else {
                        stmts.push(Stmt::Item(self.parse_item()));
                    }
                }
                "fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "use" | "static"
                | "macro_rules" => {
                    stmts.push(Stmt::Item(self.parse_item()));
                }
                "let" | "return" | "break" | "continue" | "move" | "in" | "as" | "mut" | "ref"
                | "else" => {
                    self.bump();
                }
                "#" => {
                    // Statement-level attribute (`#[cfg(...)]` on a stmt
                    // or expression): consume, attach to nothing.
                    self.parse_attr();
                }
                "." => {
                    let recv_self = self.pos > 0 && self.toks[self.pos - 1].text == "self";
                    self.bump();
                    if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                        let name = self.cur_text().to_string();
                        let line = self.cur_line();
                        self.bump();
                        if self.at_path_sep() && self.peek_text(2) == "<" {
                            self.bump();
                            self.bump();
                            self.skip_generics();
                        }
                        if self.cur_text() == "(" {
                            stmts.push(Stmt::Call(Call {
                                name,
                                qualifier: None,
                                method: true,
                                recv_self,
                                line,
                            }));
                        }
                    }
                }
                _ => {
                    if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                        if let Some(call) = self.parse_path_call() {
                            stmts.push(Stmt::Call(call));
                        }
                    } else {
                        self.bump();
                    }
                }
            }
        }
        Block { stmts }
    }

    /// At an ident inside a body: consume the path (`a::b::c`, with
    /// turbofish) and return a call when a `(` follows. Macro invocations
    /// (`path!`) consume only the `!`; their contents parse inline.
    fn parse_path_call(&mut self) -> Option<Call> {
        let mut segs: Vec<String> = Vec::new();
        let mut line = self.cur_line();
        loop {
            if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                line = self.cur_line();
                segs.push(self.cur_text().to_string());
                self.bump();
            } else {
                break;
            }
            if self.at_path_sep() {
                if self.peek_text(2) == "<" {
                    self.bump();
                    self.bump();
                    self.skip_generics();
                    if self.at_path_sep() {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    break;
                }
                self.bump();
                self.bump();
                if !self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                    break;
                }
            } else {
                break;
            }
        }
        if segs.is_empty() {
            self.bump(); // defensive: guarantee progress
            return None;
        }
        if self.cur_text() == "!" {
            self.bump(); // macro invocation: contents parse inline
            return None;
        }
        if self.cur_text() != "(" {
            return None;
        }
        let name = segs.pop().unwrap_or_default();
        let qualifier = segs
            .pop()
            .filter(|q| q != "self" && q != "super" && q != "std" && q != "core" && q != "alloc");
        Some(Call {
            name,
            qualifier,
            method: false,
            recv_self: false,
            line,
        })
    }

    /// Scan a condition / loop header up to (not consuming) the depth-0
    /// block `{`. Emits calls found in the header into `stmts` (they run
    /// unconditionally before the branch) and returns
    /// `(rank_dep, had_tokens)`.
    fn scan_cond(&mut self, stmts: &mut Vec<Stmt>) -> (bool, bool) {
        let mut rank_dep = false;
        let mut any = false;
        let mut paren = 0usize;
        let mut bracket = 0usize;
        // In `if let PAT = expr` / `while let`, struct-pattern braces may
        // appear between `let` and the depth-0 `=`; skip them there.
        let mut in_pattern = false;
        loop {
            if self.at_end() {
                break;
            }
            let t = self.cur_text();
            match t {
                "{" => {
                    if paren == 0 && bracket == 0 {
                        if in_pattern {
                            self.skip_balanced("{", "}");
                            continue;
                        }
                        break;
                    }
                    // A brace nested inside parens/brackets in the header
                    // is an expression brace (struct literal in an array,
                    // closure body, block arg) — never the loop/if body.
                    self.skip_balanced("{", "}");
                    continue;
                }
                "}" => break,
                "let" => {
                    in_pattern = true;
                    self.bump();
                }
                "=" if paren == 0 && bracket == 0 && self.peek_text(1) != "=" => {
                    in_pattern = false;
                    self.bump();
                }
                "(" => {
                    paren += 1;
                    self.bump();
                }
                ")" => {
                    paren = paren.saturating_sub(1);
                    self.bump();
                }
                "[" => {
                    bracket += 1;
                    self.bump();
                }
                "]" => {
                    bracket = bracket.saturating_sub(1);
                    self.bump();
                }
                "." => {
                    let recv_self = self.pos > 0 && self.toks[self.pos - 1].text == "self";
                    self.bump();
                    if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                        let name = self.cur_text().to_string();
                        let line = self.cur_line();
                        if is_rank_ident(&name) {
                            rank_dep = true;
                        }
                        self.bump();
                        if self.at_path_sep() && self.peek_text(2) == "<" {
                            self.bump();
                            self.bump();
                            self.skip_generics();
                        }
                        if self.cur_text() == "(" {
                            stmts.push(Stmt::Call(Call {
                                name,
                                qualifier: None,
                                method: true,
                                recv_self,
                                line,
                            }));
                        }
                    }
                }
                _ => {
                    if self.cur().is_some_and(|tok| tok.kind == TokKind::Ident) {
                        if is_rank_ident(t) {
                            rank_dep = true;
                        }
                        if let Some(call) = self.parse_path_call() {
                            if is_rank_ident(&call.name) {
                                rank_dep = true;
                            }
                            stmts.push(Stmt::Call(call));
                        }
                        any = true;
                        continue;
                    }
                    self.bump();
                }
            }
            any = true;
        }
        (rank_dep, any)
    }

    /// At `if`: parse the whole `if` / `else if` / `else` chain into one
    /// Branch. Header calls are emitted into `stmts`.
    fn parse_if_chain(&mut self, stmts: &mut Vec<Stmt>) -> Stmt {
        let line = self.cur_line();
        self.eat("if");
        let (rank_dep, _) = self.scan_cond(stmts);
        let mut arms = Vec::new();
        if self.eat("{") {
            arms.push(self.parse_stmts(Stop::Brace));
        } else {
            arms.push(Block::default());
        }
        if self.cur_text() == "else" {
            self.bump();
            if self.cur_text() == "if" {
                // Nest the rest of the chain as the second arm.
                let nested = self.parse_if_chain(stmts);
                arms.push(Block {
                    stmts: vec![nested],
                });
            } else if self.eat("{") {
                arms.push(self.parse_stmts(Stop::Brace));
            } else {
                arms.push(Block::default());
            }
        } else {
            arms.push(Block::default());
        }
        Stmt::Branch {
            rank_dep,
            arms,
            line,
        }
    }

    /// At `match`: scrutinee, then one arm per `pattern => body`.
    fn parse_match(&mut self, stmts: &mut Vec<Stmt>) -> Stmt {
        let line = self.cur_line();
        self.eat("match");
        let (mut rank_dep, _) = self.scan_cond(stmts);
        let mut arms = Vec::new();
        if self.eat("{") {
            while !self.at_end() && self.cur_text() != "}" {
                // Pattern (and optional guard) up to the `=>`.
                let mut paren = 0usize;
                let mut bracket = 0usize;
                let mut brace = 0usize;
                let mut guard_calls: Vec<Stmt> = Vec::new();
                while !self.at_end() {
                    let t = self.cur_text();
                    match t {
                        "(" => paren += 1,
                        ")" => {
                            if paren == 0 {
                                break;
                            }
                            paren -= 1;
                        }
                        "[" => bracket += 1,
                        "]" => bracket = bracket.saturating_sub(1),
                        "{" => brace += 1,
                        "}" => {
                            if brace == 0 {
                                break; // match close: trailing tokens done
                            }
                            brace -= 1;
                        }
                        "=" if paren == 0
                            && bracket == 0
                            && brace == 0
                            && self.peek_text(1) == ">" =>
                        {
                            self.bump();
                            self.bump();
                            break;
                        }
                        _ => {
                            if self.cur().is_some_and(|tok| tok.kind == TokKind::Ident)
                                && is_rank_ident(t)
                            {
                                rank_dep = true;
                            }
                            // Guard calls (`Some(x) if x.rank() == 0 =>`):
                            // the `.` + ident + `(` shape inside pattern
                            // position can only be a guard expression.
                            if t == "."
                                && self.peek_text(2) == "("
                                && self
                                    .toks
                                    .get(self.pos + 1)
                                    .is_some_and(|n| n.kind == TokKind::Ident)
                            {
                                let name = self.peek_text(1).to_string();
                                if !name.is_empty() {
                                    if is_rank_ident(&name) {
                                        rank_dep = true;
                                    }
                                    guard_calls.push(Stmt::Call(Call {
                                        name,
                                        qualifier: None,
                                        method: true,
                                        recv_self: self.pos > 0
                                            && self.toks[self.pos - 1].text == "self",
                                        line: self.cur_line(),
                                    }));
                                }
                            }
                        }
                    }
                    self.bump();
                }
                if self.cur_text() == "}" {
                    break;
                }
                // Arm body.
                let mut body = if self.cur_text() == "{" {
                    self.bump();
                    let b = self.parse_stmts(Stop::Brace);
                    self.eat(",");
                    b
                } else {
                    self.parse_stmts(Stop::MatchArm)
                };
                if !guard_calls.is_empty() {
                    let mut merged = guard_calls;
                    merged.extend(body.stmts);
                    body = Block { stmts: merged };
                }
                arms.push(body);
            }
            self.eat("}");
        }
        if arms.is_empty() {
            arms.push(Block::default());
        }
        Stmt::Branch {
            rank_dep,
            arms,
            line,
        }
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Stop {
    Brace,
    MatchArm,
}

/// Walk every statement in a block tree, depth-first, in source order.
pub fn walk_stmts<'b>(block: &'b Block, f: &mut dyn FnMut(&'b Stmt)) {
    for s in &block.stmts {
        f(s);
        match s {
            Stmt::Branch { arms, .. } => {
                for a in arms {
                    walk_stmts(a, f);
                }
            }
            Stmt::Loop { body, .. } => walk_stmts(body, f),
            Stmt::Unsafe { body, .. } => walk_stmts(body, f),
            Stmt::Item(item) => walk_item_stmts(item, f),
            Stmt::Call(_) => {}
        }
    }
}

/// Walk every statement inside an item (recursing through containers and
/// nested fns).
pub fn walk_item_stmts<'b>(item: &'b Item, f: &mut dyn FnMut(&'b Stmt)) {
    match &item.kind {
        ItemKind::Fn(fi) => {
            if let Some(b) = &fi.body {
                walk_stmts(b, f);
            }
        }
        ItemKind::Container { items, .. } => {
            for it in items {
                walk_item_stmts(it, f);
            }
        }
        ItemKind::Plain { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn flat_fns(ast: &Ast) -> Vec<String> {
        let mut out = Vec::new();
        fn rec(items: &[Item], out: &mut Vec<String>) {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(f) => out.push(f.name.clone()),
                    ItemKind::Container { items, .. } => rec(items, out),
                    _ => {}
                }
            }
        }
        rec(&ast.items, &mut out);
        out
    }

    fn calls_of(ast: &Ast, fn_name: &str) -> Vec<String> {
        let mut out = Vec::new();
        fn rec(items: &[Item], fn_name: &str, out: &mut Vec<String>) {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(f) if f.name == fn_name => {
                        if let Some(b) = &f.body {
                            walk_stmts(b, &mut |s| {
                                if let Stmt::Call(c) = s {
                                    out.push(c.name.clone());
                                }
                            });
                        }
                    }
                    ItemKind::Container { items, .. } => rec(items, fn_name, out),
                    _ => {}
                }
            }
        }
        rec(&ast.items, fn_name, &mut out);
        out
    }

    #[test]
    fn items_tile_the_token_stream() {
        let src = r#"
            #![allow(dead_code)]
            use std::fmt;
            const N: usize = 4;
            struct Foo { a: u32 }
            enum E { A, B(u32) }
            pub(crate) fn f(x: u32) -> u32 { x + 1 }
            mod inner { pub fn g() {} }
            impl Foo { fn m(&self) -> u32 { self.a } }
            impl fmt::Display for Foo {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
            }
            trait T { fn sig(&self); fn with_default(&self) {} }
            static S: u32 = 1;
            type Alias = Vec<u32>;
            macro_rules! mk { () => {} }
            thread_local! { static TL: u32 = 0; }
        "#;
        let lexed = lex(src);
        let ast = parse(&lexed);
        let mut at = 0usize;
        for it in &ast.items {
            assert_eq!(it.span.0, at, "gap before item {it:?}");
            assert!(it.span.1 > it.span.0);
            at = it.span.1;
            assert!(
                !matches!(it.kind, ItemKind::Plain { kw: "other" }),
                "{it:?}"
            );
        }
        assert_eq!(at, lexed.toks.len(), "items must cover every token");
        let fns = flat_fns(&ast);
        for f in ["f", "g", "m", "fmt", "sig", "with_default"] {
            assert!(fns.contains(&f.to_string()), "missing fn {f}: {fns:?}");
        }
    }

    #[test]
    fn attrs_render_without_whitespace() {
        let src = "#[cfg_attr(any(), dlsr::hot)]\n#[inline(always)]\nfn k() {}";
        let ast = parse_src(src);
        let attrs = &ast.items[0].attrs;
        assert_eq!(attrs, &["cfg_attr(any(),dlsr::hot)", "inline(always)"]);
    }

    #[test]
    fn impl_header_names() {
        let src = "
            impl<T: Clone> From<Box<T>> for Wrapper<T> { fn from(b: Box<T>) -> Self { todo!() } }
            impl Wrapper<u32> { fn plain(&self) {} }
            impl Iterator for Counter where Counter: Sized { fn next(&mut self) -> Option<u32> { None } }
        ";
        let ast = parse_src(src);
        let heads: Vec<(String, Option<String>)> = ast
            .items
            .iter()
            .filter_map(|it| match &it.kind {
                ItemKind::Container {
                    kw: "impl",
                    name,
                    trait_name,
                    ..
                } => Some((name.clone(), trait_name.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            heads,
            vec![
                ("Wrapper".into(), Some("From".into())),
                ("Wrapper".into(), None),
                ("Counter".into(), Some("Iterator".into())),
            ]
        );
    }

    #[test]
    fn calls_paths_methods_and_conditions() {
        let src = "
            fn f(xs: &[f32]) {
                let v = helper(xs);
                let w = crate::util::shape(xs);
                let s = xs.iter().sum::<f32>();
                if self_check(v) { other(w); }
                Vec::with_capacity(4);
            }
        ";
        let ast = parse_src(src);
        let calls = calls_of(&ast, "f");
        for c in [
            "helper",
            "shape",
            "iter",
            "sum",
            "self_check",
            "other",
            "with_capacity",
        ] {
            assert!(calls.contains(&c.to_string()), "missing {c}: {calls:?}");
        }
    }

    #[test]
    fn branches_and_rank_dependence() {
        let src = "
            fn step(rank: usize) {
                if rank % 2 == 0 { allreduce(); } else { barrier(); }
                if ready { go(); }
                for peer_rank in 0..4 { send(peer_rank); }
                match rank { 0 => bcast(), _ => recv(), }
            }
        ";
        let ast = parse_src(src);
        let mut branches = Vec::new();
        walk_item_stmts(&ast.items[0], &mut |s| {
            if let Stmt::Branch { rank_dep, arms, .. } = s {
                branches.push((*rank_dep, arms.len()));
            }
        });
        assert_eq!(branches, vec![(true, 2), (false, 2), (true, 2)]);
        let mut loops = Vec::new();
        walk_item_stmts(&ast.items[0], &mut |s| {
            if let Stmt::Loop { rank_dep, .. } = s {
                loops.push(*rank_dep);
            }
        });
        assert_eq!(loops, vec![true]);
    }

    #[test]
    fn if_let_struct_pattern_does_not_eat_the_block() {
        let src = "
            fn f(e: Event) {
                if let Event { kind, .. } = e { handle(kind); }
                after();
            }
        ";
        let calls = calls_of(&parse_src(src), "f");
        assert!(calls.contains(&"handle".to_string()), "{calls:?}");
        assert!(calls.contains(&"after".to_string()), "{calls:?}");
    }

    #[test]
    fn unsafe_blocks_and_nested_fns() {
        let src = "
            fn outer() {
                // SAFETY: test input
                unsafe { raw(); }
                fn inner() { deep(); }
                inner();
            }
        ";
        let ast = parse_src(src);
        let mut saw_unsafe = false;
        walk_item_stmts(&ast.items[0], &mut |s| {
            if matches!(s, Stmt::Unsafe { .. }) {
                saw_unsafe = true;
            }
        });
        assert!(saw_unsafe);
        let fns = flat_fns(&ast);
        assert_eq!(fns, vec!["outer".to_string()]);
        let calls = calls_of(&ast, "outer");
        assert!(calls.contains(&"raw".to_string()));
        assert!(calls.contains(&"deep".to_string()), "{calls:?}");
        assert!(calls.contains(&"inner".to_string()));
    }

    #[test]
    fn self_method_calls_are_marked() {
        let src = "
            impl W { fn run(&mut self) { self.step(); free(); } }
        ";
        let ast = parse_src(src);
        let mut self_calls = Vec::new();
        walk_item_stmts(&ast.items[0], &mut |s| {
            if let Stmt::Call(c) = s {
                if c.recv_self {
                    self_calls.push(c.name.clone());
                }
            }
        });
        assert_eq!(self_calls, vec!["step".to_string()]);
    }

    #[test]
    fn match_arms_with_expressions() {
        let src = "
            fn f(s: Step) -> u32 {
                match s {
                    Step::Task(t) => run(t),
                    Step::Pair => (a(), b()).0,
                    Step::Done => { finish(); 0 }
                }
            }
        ";
        let ast = parse_src(src);
        let calls = calls_of(&ast, "f");
        for c in ["run", "a", "b", "finish"] {
            assert!(calls.contains(&c.to_string()), "missing {c}: {calls:?}");
        }
        let mut arm_counts = Vec::new();
        walk_item_stmts(&ast.items[0], &mut |s| {
            if let Stmt::Branch { arms, .. } = s {
                arm_counts.push(arms.len());
            }
        });
        assert_eq!(arm_counts, vec![3]);
    }

    #[test]
    fn turbofish_and_macros_do_not_derail() {
        let src = "
            fn f(xs: &[u32]) {
                let v = xs.iter().collect::<Vec<_>>();
                let m = Vec::<u32>::new();
                println!(\"{} {}\", v.len(), helper());
                assert_eq!(helper(), 3);
            }
        ";
        let calls = calls_of(&parse_src(src), "f");
        assert!(calls.contains(&"collect".to_string()), "{calls:?}");
        assert!(calls.contains(&"new".to_string()), "{calls:?}");
        assert!(calls.contains(&"helper".to_string()), "{calls:?}");
        assert!(calls.contains(&"len".to_string()), "{calls:?}");
    }

    #[test]
    fn bodyless_trait_fns_have_no_body() {
        let src = "trait T { fn sig(&self, n: usize) -> usize; }";
        let ast = parse_src(src);
        let ItemKind::Container { items, .. } = &ast.items[0].kind else {
            panic!("expected trait container");
        };
        let ItemKind::Fn(f) = &items[0].kind else {
            panic!("expected fn");
        };
        assert!(f.body.is_none());
        assert_eq!(f.body_span.0, f.body_span.1);
    }
}
