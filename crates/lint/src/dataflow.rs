//! Intraprocedural dataflow: per-function ordered *effect sequences*
//! over the wire-codec primitive vocabulary, and the `codec_symmetry`
//! rule built on them.
//!
//! Every hand-rolled binary format in the workspace (artifact "MLSA",
//! checkpoint "MLSC", registry "MLSR", net protocol "MLSN", model frames
//! "MLS*") is a pair of functions — a writer driving `codec::Writer::put_*`
//! and a reader driving the `codec::Reader` primitives — that must agree
//! field-for-field on order, width, loop structure, and branch structure.
//! This module extracts both sides as effect sequences from the token
//! stream the [`crate::parse`] scope tracker already produces, normalizes
//! them, and diagnoses any divergence with a side-by-side sequence diff.
//!
//! The model (full precision discussion in DESIGN.md §16):
//!
//! * **Primitives** — `put_u8`…`put_bytes` on the writer side and
//!   `u8()`…`bytes()` reader methods both map to the same [`Prim`]
//!   alphabet, so a `put_u32` paired with a `u64()` read is a width
//!   mismatch, not two unrelated calls. The array primitives
//!   (`put_f64s`/`f64s(n)`, `put_u32s`/`u32s(n)`) are letters of their
//!   own: they pair with each other, never with a hand-written loop.
//! * **Helpers** — calls named `put_X`/`get_X`/`read_X`/`write_X`/
//!   `encode_X`/`decode_X` (or exactly `encode`/`decode`) are inlined
//!   when the callee is in scope, otherwise kept as an opaque `<X>`
//!   marker that still must match positionally across the pair.
//! * **Structure** — `for`/`while`/`loop` bodies become `{ … }*` nodes;
//!   `match`/`if` arms become `( a | b )` nodes. Branch arms are
//!   normalized (empty arms dropped, duplicate arms merged, a shared
//!   leading primitive hoisted out) so a writer `match` and the reader's
//!   tag dispatch compare equal when — and only when — they move the
//!   same bytes.
//! * **Envelope ops** (`into_frame`, `decode_frame`, `finish`, …) are
//!   ignored: the frame header/checksum layer is symmetric by
//!   construction and carries no field information.
//!
//! A pair where either normalized side is empty is skipped rather than
//! diagnosed: a delegating codec (e.g. the registry's frame-chain
//! replay) is out of this pass's reach and stays covered by round-trip
//! tests.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{FileContext, FileRole};
use crate::parse::{tokenize, Tok};
use crate::rules::{self, RuleId, Violation};
use crate::FileUnit;

/// The wire-primitive alphabet shared by writers and readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    U8,
    U16,
    U32,
    U64,
    F64,
    Str16,
    Blob64,
    Bytes,
    F64s,
    U32s,
}

impl Prim {
    fn render(self) -> &'static str {
        match self {
            Prim::U8 => "u8",
            Prim::U16 => "u16",
            Prim::U32 => "u32",
            Prim::U64 => "u64",
            Prim::F64 => "f64",
            Prim::Str16 => "str16",
            Prim::Blob64 => "blob64",
            Prim::Bytes => "bytes",
            Prim::F64s => "f64s",
            Prim::U32s => "u32s",
        }
    }
}

/// Writer-side primitive method names (`codec::Writer`).
const WRITER_PRIMS: &[(&str, Prim)] = &[
    ("put_u8", Prim::U8),
    ("put_u16", Prim::U16),
    ("put_u32", Prim::U32),
    ("put_u64", Prim::U64),
    ("put_f64", Prim::F64),
    ("put_str16", Prim::Str16),
    ("put_blob64", Prim::Blob64),
    ("put_blob64_with", Prim::Blob64),
    ("put_bytes", Prim::Bytes),
    ("put_f64s", Prim::F64s),
    ("put_u32s", Prim::U32s),
];

/// Reader-side primitive method names (`codec::Reader`; method position
/// required — `u8` etc. are too short to trust as free identifiers).
const READER_PRIMS: &[(&str, Prim)] = &[
    ("u8", Prim::U8),
    ("u16", Prim::U16),
    ("u32", Prim::U32),
    ("u64", Prim::U64),
    ("f64", Prim::F64),
    ("str16", Prim::Str16),
    ("blob64", Prim::Blob64),
    ("bytes", Prim::Bytes),
    ("f64s", Prim::F64s),
    ("u32s", Prim::U32s),
];

/// Frame-envelope operations: symmetric by construction (magic, version,
/// length, FNV-1a checksum live in `codec::{encode_frame, decode_frame}`)
/// and therefore carry no field information.
const ENVELOPE_OPS: &[&str] = &[
    "encode_frame",
    "decode_frame",
    "into_frame",
    "finish",
    "peek_version",
    "frame_span",
];

/// One node of an effect sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// A wire primitive read or write.
    Prim(Prim),
    /// A codec-shaped call that could not be resolved in scope, kept as
    /// an opaque marker by stem so both sides can still match on it.
    Helper(String),
    /// A codec-shaped call pending resolution (inlining turns this into
    /// the callee's sequence or a [`Effect::Helper`]).
    Call(String),
    /// A `for`/`while`/`loop` body.
    Loop(Vec<Effect>),
    /// `match`/`if` alternatives.
    Branch(Vec<Vec<Effect>>),
}

/// `put_span` → `span`; `encode` / `decode` → `self`.
fn helper_stem(name: &str) -> Option<String> {
    if name == "encode" || name == "decode" {
        return Some("self".to_string());
    }
    for p in ["put_", "get_", "read_", "write_", "encode_", "decode_"] {
        if let Some(rest) = name.strip_prefix(p) {
            if !rest.is_empty() {
                return Some(rest.to_string());
            }
        }
    }
    None
}

/// Classifies an identifier-followed-by-`(` token as an effect, if any.
fn call_effect(toks: &[(usize, Tok)], i: usize) -> Option<Effect> {
    let (_, Tok::Ident(name)) = &toks[i] else {
        return None;
    };
    if !matches!(toks.get(i + 1), Some((_, Tok::Sym('(')))) {
        return None;
    }
    if let Some(&(_, p)) = WRITER_PRIMS.iter().find(|(m, _)| m == name) {
        return Some(Effect::Prim(p));
    }
    let is_method = i > 0 && matches!(toks.get(i - 1), Some((_, Tok::Sym('.'))));
    if is_method {
        if let Some(&(_, p)) = READER_PRIMS.iter().find(|(m, _)| m == name) {
            return Some(Effect::Prim(p));
        }
    }
    if ENVELOPE_OPS.contains(&name.as_str()) {
        return None;
    }
    if helper_stem(name).is_some() {
        return Some(Effect::Call(name.clone()));
    }
    None
}

#[derive(Debug)]
enum FrameKind {
    /// The fn body itself; its closing brace ends extraction.
    Body,
    /// Plain/struct-literal/arm block — transparent.
    Block,
    Loop,
    Match {
        arms: Vec<Vec<Effect>>,
        seen_arrow: bool,
    },
    If {
        arms: Vec<Vec<Effect>>,
    },
}

#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    effects: Vec<Effect>,
    /// `(`/`[` nesting inside this frame — arm separators only count at
    /// depth 0.
    depth: i32,
}

enum Pend {
    Loop,
    Match,
    If(Vec<Vec<Effect>>),
}

/// Extracts the raw effect sequence of the fn whose `fn` keyword is at
/// token index `fn_idx`. Returns an empty sequence for body-less
/// declarations or anything too deep/odd to walk.
fn extract_body(toks: &[(usize, Tok)], fn_idx: usize) -> Vec<Effect> {
    // Find the body's opening brace. A depth-0 `;` first means no body —
    // but `[u8; 41]` in a return type nests its `;` inside brackets.
    let mut i = fn_idx + 1;
    let mut sig_depth = 0i32;
    loop {
        match toks.get(i) {
            Some((_, Tok::Sym('{'))) => break,
            Some((_, Tok::Sym('(' | '['))) => sig_depth += 1,
            Some((_, Tok::Sym(')' | ']'))) => sig_depth -= 1,
            Some((_, Tok::Sym(';'))) if sig_depth == 0 => return Vec::new(),
            None => return Vec::new(),
            _ => {}
        }
        i += 1;
    }
    i += 1;

    let mut frames = vec![Frame {
        kind: FrameKind::Body,
        effects: Vec::new(),
        depth: 0,
    }];
    let mut pending: Option<Pend> = None;

    while i < toks.len() {
        if frames.len() > 64 {
            return Vec::new();
        }
        match &toks[i].1 {
            Tok::Ident(w) => match w.as_str() {
                "for" | "while" | "loop" => {
                    if pending.is_none() {
                        pending = Some(Pend::Loop);
                    }
                }
                "match" => pending = Some(Pend::Match),
                "if" => {
                    if !matches!(pending, Some(Pend::If(_))) {
                        pending = Some(Pend::If(Vec::new()));
                    }
                }
                _ => {
                    if let Some(e) = call_effect(toks, i) {
                        if let Some(top) = frames.last_mut() {
                            top.effects.push(e);
                        }
                    }
                }
            },
            Tok::Sym('{') => {
                let kind = match pending.take() {
                    Some(Pend::Loop) => FrameKind::Loop,
                    Some(Pend::Match) => FrameKind::Match {
                        arms: Vec::new(),
                        seen_arrow: false,
                    },
                    Some(Pend::If(arms)) => FrameKind::If { arms },
                    None => FrameKind::Block,
                };
                frames.push(Frame {
                    kind,
                    effects: Vec::new(),
                    depth: 0,
                });
            }
            Tok::Sym('}') => {
                let Some(frame) = frames.pop() else {
                    return Vec::new();
                };
                match frame.kind {
                    FrameKind::Body => return frame.effects,
                    FrameKind::Block => {
                        if let Some(top) = frames.last_mut() {
                            top.effects.extend(frame.effects);
                        }
                    }
                    FrameKind::Loop => {
                        if let Some(top) = frames.last_mut() {
                            top.effects.push(Effect::Loop(frame.effects));
                        }
                    }
                    FrameKind::Match { mut arms, .. } => {
                        arms.push(frame.effects);
                        if let Some(top) = frames.last_mut() {
                            top.effects.push(Effect::Branch(arms));
                        }
                    }
                    FrameKind::If { mut arms } => {
                        arms.push(frame.effects);
                        if matches!(toks.get(i + 1), Some((_, Tok::Ident(w))) if w == "else") {
                            // `} else {` / `} else if … {` continue the
                            // same alternative set.
                            pending = Some(Pend::If(arms));
                        } else if let Some(top) = frames.last_mut() {
                            top.effects.push(Effect::Branch(arms));
                        }
                    }
                }
                if frames.is_empty() {
                    return Vec::new();
                }
            }
            Tok::Sym('(') | Tok::Sym('[') => {
                if let Some(top) = frames.last_mut() {
                    top.depth += 1;
                }
            }
            Tok::Sym(')') | Tok::Sym(']') => {
                if let Some(top) = frames.last_mut() {
                    top.depth -= 1;
                }
            }
            Tok::Sym(',') => {
                if let Some(top) = frames.last_mut() {
                    if top.depth == 0 {
                        if let FrameKind::Match { arms, .. } = &mut top.kind {
                            arms.push(std::mem::take(&mut top.effects));
                        }
                    }
                }
            }
            Tok::Sym('=') => {
                // Fat arrow `=>`: finalize the previous arm (the first
                // arrow instead discards scrutinee/pattern leftovers).
                if matches!(toks.get(i + 1), Some((_, Tok::Sym('>')))) {
                    pending = None; // a `match`-guard `if` never opened
                    if let Some(top) = frames.last_mut() {
                        if top.depth == 0 {
                            if let FrameKind::Match { arms, seen_arrow } = &mut top.kind {
                                if *seen_arrow {
                                    arms.push(std::mem::take(&mut top.effects));
                                } else {
                                    top.effects.clear();
                                    *seen_arrow = true;
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    Vec::new()
}

/// One extracted codec-relevant function.
#[derive(Debug)]
struct ExtractedFn {
    file: String,
    crate_name: String,
    bare: String,
    qualified: String,
    display: String,
    start_line: usize,
    in_test: bool,
    raw: Vec<Effect>,
}

/// Which crates/modules own wire codecs. `collectives`/`wire` is the
/// model-frame codec (dense/sparse/quantized kinds);
/// its sibling modules (`compress`, `allreduce`, `size`) hold policy and
/// arithmetic, not byte layout, and stay out of scope.
fn in_codec_scope(ctx: &FileContext) -> bool {
    if ctx.role != FileRole::Lib {
        return false;
    }
    let module = rules::file_module(ctx);
    match ctx.crate_name.as_str() {
        "codec" | "serve" => true,
        "core" => module == "checkpoint",
        "net" => module == "protocol",
        "collectives" => module == "wire",
        _ => false,
    }
}

/// Inlines `Call` nodes: resolve by bare name (same file first, else
/// unique in the scope set), splice the callee's sequence, cycle-guarded
/// by the current inline path.
fn inline_seq(
    seq: &[Effect],
    file: &str,
    fns: &[ExtractedFn],
    by_bare: &BTreeMap<&str, Vec<usize>>,
    stack: &mut Vec<(String, String)>,
) -> Vec<Effect> {
    let mut out = Vec::new();
    for e in seq {
        match e {
            Effect::Call(name) => {
                let resolved = resolve(name, file, fns, by_bare);
                let key = resolved.map(|idx| (fns[idx].file.clone(), fns[idx].bare.clone()));
                match (resolved, key) {
                    (Some(idx), Some(key)) if stack.len() < 8 && !stack.contains(&key) => {
                        stack.push(key);
                        let inner = inline_seq(&fns[idx].raw, &fns[idx].file, fns, by_bare, stack);
                        stack.pop();
                        out.extend(inner);
                    }
                    _ => {
                        if let Some(stem) = helper_stem(name) {
                            out.push(Effect::Helper(stem));
                        }
                    }
                }
            }
            Effect::Loop(body) => {
                out.push(Effect::Loop(inline_seq(body, file, fns, by_bare, stack)));
            }
            Effect::Branch(arms) => out.push(Effect::Branch(
                arms.iter()
                    .map(|a| inline_seq(a, file, fns, by_bare, stack))
                    .collect(),
            )),
            other => out.push(other.clone()),
        }
    }
    out
}

fn resolve(
    name: &str,
    file: &str,
    fns: &[ExtractedFn],
    by_bare: &BTreeMap<&str, Vec<usize>>,
) -> Option<usize> {
    let candidates = by_bare.get(name)?;
    let local: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| fns[i].file == file)
        .collect();
    match (local.len(), candidates.len()) {
        (1, _) => Some(local[0]),
        (0, 1) => Some(candidates[0]),
        _ => None,
    }
}

/// Canonical normalization: drop empty loops; inside branches drop empty
/// arms, merge duplicate arms, hoist a primitive shared as the head of
/// every arm, and sort the remainder — so a writer `match` and the
/// reader's tag dispatch render identically iff they move the same bytes.
fn normalize(seq: &[Effect]) -> Vec<Effect> {
    let mut out = Vec::new();
    for e in seq {
        match e {
            Effect::Prim(p) => out.push(Effect::Prim(*p)),
            Effect::Helper(s) => out.push(Effect::Helper(s.clone())),
            Effect::Call(name) => {
                if let Some(stem) = helper_stem(name) {
                    out.push(Effect::Helper(stem));
                }
            }
            Effect::Loop(body) => {
                let nb = normalize(body);
                if !nb.is_empty() {
                    out.push(Effect::Loop(nb));
                }
            }
            Effect::Branch(arms) => {
                let mut narms: Vec<Vec<Effect>> = arms.iter().map(|a| normalize(a)).collect();
                loop {
                    narms.retain(|a| !a.is_empty());
                    let mut seen = BTreeSet::new();
                    narms.retain(|a| seen.insert(render_seq(a)));
                    if narms.len() >= 2 {
                        if let Some(&Effect::Prim(p)) = narms[0].first() {
                            if narms.iter().all(|a| a.first() == Some(&Effect::Prim(p))) {
                                out.push(Effect::Prim(p));
                                for a in &mut narms {
                                    a.remove(0);
                                }
                                continue;
                            }
                        }
                    }
                    break;
                }
                narms.sort_by_key(|a| render_seq(a));
                if !narms.is_empty() {
                    out.push(Effect::Branch(narms));
                }
            }
        }
    }
    out
}

fn render_effect(e: &Effect) -> String {
    match e {
        Effect::Prim(p) => p.render().to_string(),
        Effect::Helper(s) => format!("<{s}>"),
        Effect::Call(name) => format!("<{name}>"),
        Effect::Loop(body) => format!("{{ {} }}*", render_seq(body)),
        Effect::Branch(arms) => {
            let parts: Vec<String> = arms.iter().map(|a| render_seq(a)).collect();
            format!("( {} )", parts.join(" | "))
        }
    }
}

fn render_seq(seq: &[Effect]) -> String {
    let parts: Vec<String> = seq.iter().map(render_effect).collect();
    parts.join(" ")
}

/// Render capped for diagnostics: long sequences keep head and tail.
fn render_capped(seq: &[Effect]) -> String {
    const CAP: usize = 160;
    let full = render_seq(seq);
    if full.len() <= CAP {
        return full;
    }
    let head: String = full.chars().take(CAP - 1).collect();
    format!("{head}…")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Writer,
    Reader,
}

/// Pairing convention: `put_X`/`write_X`/`encode_X` ↔ `get_X`/`read_X`/
/// `decode_X` by stem `X`; bare `encode`/`decode` pair by impl type.
/// Primitive and envelope names are never paired.
fn classify_codec(qualified: &str, bare: &str) -> Option<(Side, String)> {
    if WRITER_PRIMS.iter().any(|(m, _)| *m == bare)
        || READER_PRIMS.iter().any(|(m, _)| *m == bare)
        || ENVELOPE_OPS.contains(&bare)
    {
        return None;
    }
    if bare == "encode" || bare == "decode" {
        let stem = match qualified.split_once("::") {
            Some((ty, _)) => ty.to_string(),
            None => "self".to_string(),
        };
        let side = if bare == "encode" {
            Side::Writer
        } else {
            Side::Reader
        };
        return Some((side, stem));
    }
    for (p, side) in [
        ("put_", Side::Writer),
        ("write_", Side::Writer),
        ("encode_", Side::Writer),
        ("get_", Side::Reader),
        ("read_", Side::Reader),
        ("decode_", Side::Reader),
    ] {
        if let Some(rest) = bare.strip_prefix(p) {
            if !rest.is_empty() {
                return Some((side, rest.to_string()));
            }
        }
    }
    None
}

/// Human phrase for the first top-level divergence between two
/// normalized sequences.
fn divergence(w: &[Effect], r: &[Effect]) -> String {
    let n = w.len().min(r.len());
    for k in 0..n {
        let (we, re) = (render_effect(&w[k]), render_effect(&r[k]));
        if we != re {
            return format!("diverge at step {} (writer `{we}` vs reader `{re}`)", k + 1);
        }
    }
    format!(
        "have {} writer step(s) vs {} reader step(s)",
        w.len(),
        r.len()
    )
}

/// Runs the codec_symmetry rule: extract, inline, normalize, pair, diff.
pub(crate) fn pass_codec_symmetry(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    // Extract every non-test fn in codec scope.
    let mut fns: Vec<ExtractedFn> = Vec::new();
    for unit in units.iter() {
        if !in_codec_scope(&unit.ctx) {
            continue;
        }
        let toks = tokenize(&unit.lines);
        for item in &unit.items {
            if item.in_test {
                continue;
            }
            let bare = item.bare_name().to_string();
            let Some(fn_idx) = toks.iter().position(|(line, t)| {
                *line == item.start_line && matches!(t, Tok::Ident(w) if w == "fn")
            }) else {
                continue;
            };
            // Guard against two `fn` keywords on one line pointing at the
            // wrong item.
            if !matches!(toks.get(fn_idx + 1), Some((_, Tok::Ident(w))) if *w == bare) {
                continue;
            }
            fns.push(ExtractedFn {
                file: unit.ctx.rel_path.clone(),
                crate_name: item.crate_name.clone(),
                bare,
                qualified: item.name.clone(),
                display: item.display(),
                start_line: item.start_line,
                in_test: item.in_test,
                raw: extract_body(&toks, fn_idx),
            });
        }
    }

    let mut by_bare: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_bare.entry(f.bare.as_str()).or_default().push(i);
    }

    // Pair writers with readers by (crate, stem).
    let mut readers: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        if let Some((Side::Reader, stem)) = classify_codec(&f.qualified, &f.bare) {
            readers
                .entry((f.crate_name.clone(), stem))
                .or_default()
                .push(i);
        }
    }

    let mut diags: Vec<(String, usize, String, Vec<String>)> = Vec::new();
    for (wi, w) in fns.iter().enumerate() {
        let Some((Side::Writer, stem)) = classify_codec(&w.qualified, &w.bare) else {
            continue;
        };
        let Some(cands) = readers.get(&(w.crate_name.clone(), stem)) else {
            continue;
        };
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].file == w.file)
            .collect();
        let ri = match (local.len(), cands.len()) {
            (1, _) => local[0],
            (0, 1) => cands[0],
            _ => continue, // ambiguous pairing — skip, don't guess
        };

        let mut stack = vec![(w.file.clone(), w.bare.clone())];
        let wseq = normalize(&inline_seq(
            &fns[wi].raw,
            &w.file,
            &fns,
            &by_bare,
            &mut stack,
        ));
        let mut stack = vec![(fns[ri].file.clone(), fns[ri].bare.clone())];
        let rseq = normalize(&inline_seq(
            &fns[ri].raw,
            &fns[ri].file,
            &fns,
            &by_bare,
            &mut stack,
        ));
        // A delegating side the model cannot see — covered by round-trip
        // tests instead (DESIGN.md §16).
        if wseq.is_empty() || rseq.is_empty() {
            continue;
        }
        if render_seq(&wseq) == render_seq(&rseq) {
            continue;
        }
        let message = format!(
            "codec symmetry broken: `{}` / `{}` {}; writer: [{}] reader: [{}]; \
             fields must be written and read in the same order and width",
            w.display,
            fns[ri].display,
            divergence(&wseq, &rseq),
            render_capped(&wseq),
            render_capped(&rseq),
        );
        diags.push((
            w.file.clone(),
            w.start_line,
            message,
            vec![w.display.clone(), fns[ri].display.clone()],
        ));
    }

    for unit in units.iter_mut() {
        for (file, line, message, path) in &diags {
            if *file == unit.ctx.rel_path {
                rules::push(
                    unit,
                    out,
                    *line,
                    RuleId::CodecSymmetry,
                    message.clone(),
                    path.clone(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;
    use crate::scanner::scan;

    fn seq_of(src: &str, bare: &str) -> String {
        let ctx = classify("crates/serve/src/x.rs").expect("policed path");
        let lines = scan(src);
        let items = crate::parse::parse_file(&ctx, &lines);
        let toks = tokenize(&lines);
        let item = items.iter().find(|i| i.bare_name() == bare).expect("fn");
        let fn_idx = toks
            .iter()
            .position(|(line, t)| {
                *line == item.start_line && matches!(t, Tok::Ident(w) if w == "fn")
            })
            .expect("fn token");
        render_seq(&normalize(&extract_body(&toks, fn_idx)))
    }

    #[test]
    fn extracts_flat_prim_sequences() {
        let src = "fn put_x(w: &mut Writer) {\n    w.put_u32(1);\n    w.put_u64(2);\n    w.put_str16(\"s\");\n}\n";
        assert_eq!(seq_of(src, "put_x"), "u32 u64 str16");
    }

    #[test]
    fn loops_and_reader_prims_nest() {
        let src = "fn get_x(r: &mut Reader) {\n    let n = r.u64();\n    for _ in 0..n {\n        r.f64();\n    }\n}\n";
        assert_eq!(seq_of(src, "get_x"), "u64 { f64 }*");
    }

    #[test]
    fn match_arms_hoist_shared_tag_and_sort() {
        let w = "fn put_x(w: &mut Writer, v: &V) {\n    match v {\n        V::A => {\n            w.put_u8(0);\n            w.put_u64(1);\n        }\n        V::B => {\n            w.put_u8(1);\n        }\n    }\n}\n";
        let r = "fn get_x(r: &mut Reader) {\n    let tag = r.u8();\n    match tag {\n        0 => {\n            r.u64();\n        }\n        1 => {}\n        _ => {}\n    }\n}\n";
        assert_eq!(seq_of(w, "put_x"), seq_of(r, "get_x"));
        assert_eq!(seq_of(w, "put_x"), "u8 ( u64 )");
    }

    #[test]
    fn if_else_chains_become_branches() {
        let src = "fn put_x(w: &mut Writer, some: bool) {\n    if some {\n        w.put_u8(1);\n        w.put_f64(0.5);\n    } else {\n        w.put_u8(0);\n    }\n}\n";
        assert_eq!(seq_of(src, "put_x"), "u8 ( f64 )");
    }

    #[test]
    fn unresolved_helpers_keep_their_stem() {
        // Effects are recorded in *token* order (the writer's `put_blob64`
        // precedes its argument), matching the workspace idiom where the
        // reader binds the raw read before the out-of-scope transform.
        let w = "fn put_x(w: &mut Writer) {\n    w.put_blob64(encode_dense(d));\n}\n";
        let r = "fn get_x(r: &mut Reader) {\n    let b = r.blob64();\n    decode_dense(b);\n}\n";
        assert_eq!(seq_of(w, "put_x"), "blob64 <dense>");
        assert_eq!(seq_of(r, "get_x"), "blob64 <dense>");
    }

    #[test]
    fn envelope_ops_are_invisible() {
        let src = "fn put_x(w: Writer) {\n    w.put_u32(1);\n    w.into_frame(MAGIC, 1);\n}\n";
        assert_eq!(seq_of(src, "put_x"), "u32");
    }

    #[test]
    fn helpers_inline_across_the_same_file() {
        let src = "fn put_pair(w: &mut Writer) {\n    put_one(w);\n    put_one(w);\n}\nfn put_one(w: &mut Writer) {\n    w.put_u64(0);\n}\nfn get_pair(r: &mut Reader) {\n    read_one(r);\n    read_one(r);\n}\nfn read_one(r: &mut Reader) {\n    r.u64();\n}\n";
        let ctx = classify("crates/serve/src/x.rs").expect("policed path");
        let lines = scan(src);
        let items = crate::parse::parse_file(&ctx, &lines);
        let mut units = vec![crate::FileUnit {
            ctx,
            lines,
            items,
            waivers: Vec::new(),
        }];
        let mut out = Vec::new();
        pass_codec_symmetry(&mut units, &mut out);
        assert!(out.is_empty(), "symmetric pair fired: {out:?}");
    }

    #[test]
    fn swapped_fields_are_diagnosed_with_a_diff() {
        let src = "fn put_hdr(w: &mut Writer) {\n    w.put_u32(a);\n    w.put_u64(b);\n}\nfn get_hdr(r: &mut Reader) {\n    let b = r.u64();\n    let a = r.u32();\n}\n";
        let ctx = classify("crates/serve/src/x.rs").expect("policed path");
        let lines = scan(src);
        let items = crate::parse::parse_file(&ctx, &lines);
        let mut units = vec![crate::FileUnit {
            ctx,
            lines,
            items,
            waivers: Vec::new(),
        }];
        let mut out = Vec::new();
        pass_codec_symmetry(&mut units, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RuleId::CodecSymmetry);
        assert_eq!(out[0].line, 1);
        assert!(
            out[0].message.contains("diverge at step 1"),
            "{}",
            out[0].message
        );
        assert!(out[0].message.contains("[u32 u64]"), "{}", out[0].message);
        assert!(out[0].message.contains("[u64 u32]"), "{}", out[0].message);
    }
}
