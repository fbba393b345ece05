//! BLIF reading and writing.
//!
//! The reader makes one pass over the text's lines as `&str` slices: a
//! line is copied only when it is joined from continuation lines. Every
//! name is interned once into a table of `u32` ids, each `.names` keeps
//! its pins as a range of one shared id buffer and its cover as rows of
//! one shared byte buffer, and the network is instantiated by id.

use crate::ParseError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use xsynth_boolean::FxHashSet;
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// Largest logical line (after continuation joining) the parser accepts,
/// in bytes. Real benchmark files stay far below this; an adversarial
/// stream of continuations is cut off as a parse error instead of being
/// accumulated without bound.
pub const MAX_LINE_LEN: usize = 1 << 20;

/// Largest cover (cube count) one `.names` node may carry.
pub const MAX_CUBES_PER_COVER: usize = 1 << 20;

/// Deepest `.names` dependency chain the instantiator follows. The
/// resolver recurses per fanin level, so an adversarial chain of nested
/// definitions must become a parse error before it overflows the stack.
pub const MAX_INSTANTIATE_DEPTH: usize = 512;

/// Parses a BLIF model into a [`Network`].
///
/// Supports the combinational subset used by the IWLS'91 benchmarks:
/// `.model`, `.inputs`, `.outputs`, `.names` with on-set or off-set covers,
/// line continuations and comments. Latches and subcircuits are rejected.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, unknown directives, a
/// signal defined twice (by two `.names`, or by a `.names` that drives a
/// primary input), undefined signals, cyclic definitions, or input
/// exceeding the [`MAX_LINE_LEN`] / [`MAX_CUBES_PER_COVER`] /
/// [`MAX_INSTANTIATE_DEPTH`] robustness limits. An over-long line is
/// reported before any other error in the text.
pub fn parse_blif(src: &str) -> Result<Network, ParseError> {
    let mut reader = Reader::default();
    for line in LogicalLines(src.lines().enumerate()) {
        let read = line.and_then(|(lineno, text)| match text {
            Cow::Borrowed(text) => reader.line(lineno, text, &Cow::Borrowed),
            Cow::Owned(text) => reader.line(lineno, &text, &|s| Cow::Owned(s.to_owned())),
        });
        if let Err(e) = read {
            // a later over-long line still takes precedence
            let overlong = LogicalLines(src.lines().enumerate()).find_map(Result::err);
            return Err(overlong.unwrap_or(e));
        }
    }
    reader.build()
}

/// `logical line exceeds ...` at `line`.
fn too_long(line: usize) -> ParseError {
    ParseError::new(line, format!("logical line exceeds {MAX_LINE_LEN} bytes"))
}

/// The logical lines of a BLIF text, each with the number of its first
/// physical line: comments cut, trailing whitespace trimmed, continuation
/// lines joined with one space, blank lines skipped (a joined line is
/// kept even when blank). A line over [`MAX_LINE_LEN`] bytes is an error.
struct LogicalLines<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

/// A physical line without its comment and trailing whitespace, and
/// whether it ended in a continuation backslash (which is removed).
fn strip_line(raw: &str) -> (&str, bool) {
    let text = match raw.find('#') {
        Some(p) => &raw[..p],
        None => raw,
    }
    .trim_end();
    match text.strip_suffix('\\') {
        Some(text) => (text, true),
        None => (text, false),
    }
}

impl<'a> Iterator for LogicalLines<'a> {
    type Item = Result<(usize, Cow<'a, str>), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (i, raw) = self.0.next()?;
            let (text, continued) = strip_line(raw);
            if text.len() > MAX_LINE_LEN {
                return Some(Err(too_long(i + 1)));
            }
            if !continued {
                if text.trim().is_empty() {
                    continue;
                }
                return Some(Ok((i + 1, Cow::Borrowed(text))));
            }
            let mut joined = text.to_owned();
            for (_, raw) in self.0.by_ref() {
                let (text, continued) = strip_line(raw);
                joined.push(' ');
                joined.push_str(text.trim());
                if joined.len() > MAX_LINE_LEN {
                    return Some(Err(too_long(i + 1)));
                }
                if !continued {
                    break;
                }
            }
            return Some(Ok((i + 1, Cow::Owned(joined))));
        }
    }
}

/// No `.names` drives the signal.
const UNDEFINED: u32 = u32::MAX;

/// One `.names` definition: a single-output SOP node whose pins and rows
/// live in the [`Reader`]'s shared buffers.
#[derive(Debug, Clone, Copy)]
struct Names {
    /// The driven signal's id.
    out: u32,
    /// The input pins: `Reader::pins[pins.0..pins.1]`.
    pins: (usize, usize),
    /// Offset of the first row in `Reader::rows`; each row holds one of
    /// `0`, `1`, `-` per pin.
    rows_at: usize,
    /// Number of rows (cubes).
    cubes: usize,
    /// `true` if the cover describes the on-set, `false` for the off-set.
    on_set: bool,
    line: usize,
}

impl Names {
    fn width(&self) -> usize {
        self.pins.1 - self.pins.0
    }
}

/// The model as read: interned names and the definitions over them.
#[derive(Debug, Default)]
struct Reader<'a> {
    model: Option<Cow<'a, str>>,
    /// Name → id. Names come from untrusted input, so the table keeps
    /// std's keyed hasher.
    ids: HashMap<Cow<'a, str>, u32>,
    /// Id → name.
    names: Vec<Cow<'a, str>>,
    inputs: Vec<u32>,
    /// Each output's id and the line of the `.outputs` naming it.
    outputs: Vec<(u32, usize)>,
    /// The `.names` definitions in text order.
    defs: Vec<Names>,
    pins: Vec<u32>,
    rows: Vec<u8>,
    /// Whether the last definition still takes cover rows.
    open: bool,
}

impl<'a> Reader<'a> {
    /// The id of `name`, interning it (through `own`) on first sight.
    fn intern<'s>(&mut self, name: &'s str, own: &dyn Fn(&'s str) -> Cow<'a, str>) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let name = own(name);
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// Reads one logical line; `own` turns a slice of it into a stored
    /// name (borrowed from the source, or copied out of a joined line).
    fn line<'s>(
        &mut self,
        lineno: usize,
        line: &'s str,
        own: &dyn Fn(&'s str) -> Cow<'a, str>,
    ) -> Result<(), ParseError> {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('.') else {
            return self.cover_row(lineno, line);
        };
        self.open = false;
        let mut tok = rest.split_whitespace();
        let dir = tok.next().unwrap_or("");
        match dir {
            "model" => {
                if let Some(n) = tok.next() {
                    self.model = Some(own(n));
                }
            }
            "inputs" => {
                for t in tok {
                    let id = self.intern(t, own);
                    self.inputs.push(id);
                }
            }
            "outputs" => {
                for t in tok {
                    let id = self.intern(t, own);
                    self.outputs.push((id, lineno));
                }
            }
            "names" => {
                let start = self.pins.len();
                for t in tok {
                    let id = self.intern(t, own);
                    self.pins.push(id);
                }
                let out = self
                    .pins
                    .pop()
                    .ok_or_else(|| ParseError::new(lineno, ".names needs an output signal"))?;
                self.defs.push(Names {
                    out,
                    pins: (start, self.pins.len()),
                    rows_at: self.rows.len(),
                    cubes: 0,
                    on_set: true,
                    line: lineno,
                });
                self.open = true;
            }
            "end" => {}
            "exdc" => {
                return Err(ParseError::new(lineno, ".exdc is not supported"));
            }
            "latch" | "subckt" | "gate" | "mlatch" => {
                return Err(ParseError::new(
                    lineno,
                    format!(".{dir} is not supported (combinational BLIF only)"),
                ));
            }
            // benign directives some writers emit
            "default_input_arrival"
            | "default_output_required"
            | "wire_load_slope"
            | "area"
            | "delay"
            | "search" => {}
            other => {
                return Err(ParseError::new(
                    lineno,
                    format!("unknown directive .{other}"),
                ));
            }
        }
        Ok(())
    }

    /// Reads one cover row of the open `.names`.
    fn cover_row(&mut self, lineno: usize, line: &str) -> Result<(), ParseError> {
        let node = match self.defs.last_mut() {
            Some(node) if self.open => node,
            _ => return Err(ParseError::new(lineno, "cover row outside .names")),
        };
        let width = node.width();
        let mut parts = line.split_whitespace();
        let (pattern, value) = if width == 0 {
            (
                "",
                parts
                    .next()
                    .ok_or_else(|| ParseError::new(lineno, "empty cover row"))?,
            )
        } else {
            let p = parts
                .next()
                .ok_or_else(|| ParseError::new(lineno, "missing cube pattern"))?;
            let v = parts
                .next()
                .ok_or_else(|| ParseError::new(lineno, "missing output value"))?;
            (p, v)
        };
        if parts.next().is_some() {
            return Err(ParseError::new(lineno, "trailing tokens in cover row"));
        }
        if pattern.len() != width {
            return Err(ParseError::new(
                lineno,
                format!("cube width {} does not match {width} inputs", pattern.len()),
            ));
        }
        if let Some(other) = pattern.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
            return Err(ParseError::new(
                lineno,
                format!("bad cube character '{other}'"),
            ));
        }
        let on = match value {
            "1" => true,
            "0" => false,
            other => {
                return Err(ParseError::new(
                    lineno,
                    format!("bad output value '{other}'"),
                ))
            }
        };
        if node.cubes > 0 && on != node.on_set {
            return Err(ParseError::new(
                lineno,
                "mixed on-set and off-set rows in one .names",
            ));
        }
        if node.cubes >= MAX_CUBES_PER_COVER {
            return Err(ParseError::new(
                lineno,
                format!("cover exceeds {MAX_CUBES_PER_COVER} cubes"),
            ));
        }
        node.on_set = on;
        node.cubes += 1;
        self.rows.extend_from_slice(pattern.as_bytes());
        Ok(())
    }

    /// Instantiates the network: the inputs in declaration order, then
    /// each output's cone depth-first.
    fn build(self) -> Result<Network, ParseError> {
        let model = self.model.as_deref().unwrap_or("model");
        let mut b = Builder {
            net: Network::new(model),
            sig: vec![None; self.names.len()],
            def: vec![UNDEFINED; self.names.len()],
            on_path: vec![0; self.names.len().div_ceil(64)],
            depth: 0,
            fanins: Vec::new(),
        };
        for &id in &self.inputs {
            let name = &self.names[id as usize];
            let s = b.net.add_input(name.as_ref());
            if b.sig[id as usize].replace(s).is_some() {
                return Err(ParseError::new(0, format!("duplicate input {name}")));
            }
        }
        for (k, node) in self.defs.iter().enumerate() {
            let out = node.out as usize;
            let name = &self.names[out];
            if b.sig[out].is_some() {
                return Err(ParseError::new(
                    node.line,
                    format!(".names drives primary input {name}"),
                ));
            }
            if let Some(first) = self.defs.get(b.def[out] as usize) {
                return Err(ParseError::new(
                    node.line,
                    format!("signal {name} defined twice (first at line {})", first.line),
                ));
            }
            b.def[out] = k as u32;
        }
        for &(id, line) in &self.outputs {
            let s = b.instantiate(&self, id, line)?;
            b.net.add_output(self.names[id as usize].as_ref(), s);
        }
        Ok(b.net)
    }
}

/// The network under construction and the resolver's state, by id.
struct Builder {
    net: Network,
    /// Each id's signal once instantiated.
    sig: Vec<Option<SignalId>>,
    /// Each id's definition (an index into `Reader::defs`).
    def: Vec<u32>,
    /// One bit per id on the current resolution path.
    on_path: Vec<u64>,
    depth: usize,
    /// The fanin signals of every definition on the path, stacked.
    fanins: Vec<SignalId>,
}

impl Builder {
    /// The signal of `id`, instantiating its definition and everything
    /// it depends on first. `from` is the line that referenced `id`.
    fn instantiate(
        &mut self,
        r: &Reader<'_>,
        id: u32,
        from: usize,
    ) -> Result<SignalId, ParseError> {
        let i = id as usize;
        if let Some(s) = self.sig[i] {
            return Ok(s);
        }
        let Some(&node) = r.defs.get(self.def[i] as usize) else {
            return Err(ParseError::new(
                from,
                format!("undefined signal {}", r.names[i]),
            ));
        };
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.on_path[word] & bit != 0 {
            return Err(ParseError::new(
                node.line,
                format!("cyclic definition of {}", r.names[i]),
            ));
        }
        if self.depth >= MAX_INSTANTIATE_DEPTH {
            return Err(ParseError::new(
                node.line,
                format!("definition nesting exceeds {MAX_INSTANTIATE_DEPTH} levels"),
            ));
        }
        self.on_path[word] |= bit;
        self.depth += 1;
        let base = self.fanins.len();
        for &pin in &r.pins[node.pins.0..node.pins.1] {
            let s = self.instantiate(r, pin, node.line)?;
            self.fanins.push(s);
        }
        self.on_path[word] &= !bit;
        self.depth -= 1;
        // Build the SOP.
        let width = node.width();
        let net = &mut self.net;
        let fanins = &self.fanins[base..];
        let mut cube_sigs: Vec<SignalId> = Vec::with_capacity(node.cubes);
        for c in 0..node.cubes {
            let row = &r.rows[node.rows_at + c * width..][..width];
            let mut lits = Vec::with_capacity(row.iter().filter(|&&ph| ph != b'-').count());
            for (&f, &ph) in fanins.iter().zip(row) {
                match ph {
                    b'1' => lits.push(f),
                    b'0' => lits.push(net.add_gate(GateKind::Not, vec![f])),
                    _ => {}
                }
            }
            cube_sigs.push(match lits.len() {
                0 => net.add_gate(GateKind::Const1, vec![]),
                1 => lits[0],
                _ => net.add_gate(GateKind::And, lits),
            });
        }
        let mut s = match cube_sigs.len() {
            0 => net.add_gate(GateKind::Const0, vec![]),
            1 => cube_sigs[0],
            _ => net.add_gate(GateKind::Or, cube_sigs),
        };
        if !node.on_set {
            s = net.add_gate(GateKind::Not, vec![s]);
        }
        self.fanins.truncate(base);
        self.sig[i] = Some(s);
        Ok(s)
    }
}

/// Serializes a network as BLIF text.
///
/// Every gate becomes a `.names` node; n-ary XOR/XNOR gates are written as
/// explicit parity covers, so their fanin counts should be modest (they are
/// at most a handful in synthesized networks).
///
/// Inputs and named gates keep their names, with whitespace, `#` and `\`
/// (which BLIF reads as separators, comments and continuations) replaced
/// by `_`. Two different names that sanitize alike get two labels: the
/// lowest-numbered node's name (or the first output's, when no node has
/// it) keeps the label and the other becomes the first free
/// `<label>_<k>`. An unnamed gate is labelled `n<index>`, unless that
/// label is already some input's, named gate's or other signal's output
/// name; then it becomes the first free `n<index>_<k>`. Either way the
/// text parses back to the same function.
pub fn write_blif(net: &Network) -> String {
    let order = net.topo_order();
    let labels = Labels::new(net, &order);
    let model = sanitize(net.name());
    let outputs = net.outputs();
    let inputs_len: usize = net.inputs().iter().map(|&i| 1 + labels.node(i).len()).sum();
    let mut len = ".model \n.inputs\n.outputs\n.end\n".len() + model.len() + inputs_len;
    for (j, (_, sig)) in outputs.iter().enumerate() {
        len += 1 + labels.output(j).len();
        if labels.output(j) != labels.node(*sig) {
            len += ".names  \n1 1\n".len() + labels.node(*sig).len() + labels.output(j).len();
        }
    }
    for &id in &order {
        if let NodeKind::Gate(kind) = net.kind(id) {
            let fanins = net.fanins(id);
            let k = fanins.len();
            let header: usize = fanins.iter().map(|&f| 1 + labels.node(f).len()).sum();
            len = len.saturating_add(
                ".names \n".len() + header + labels.node(id).len() + cover_len(*kind, k),
            );
        }
    }

    // the exact length, unless an XOR/XNOR cover is absurdly wide
    let mut out = String::with_capacity(len.min(1 << 26));
    out.push_str(".model ");
    out.push_str(&model);
    out.push_str("\n.inputs");
    for &i in net.inputs() {
        out.push(' ');
        out.push_str(labels.node(i));
    }
    out.push_str("\n.outputs");
    for j in 0..outputs.len() {
        out.push(' ');
        out.push_str(labels.output(j));
    }
    out.push('\n');

    let mut row: Vec<u8> = Vec::new();
    for id in order {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fanins = net.fanins(id);
        let k = fanins.len();
        out.push_str(".names");
        for &f in fanins {
            out.push(' ');
            out.push_str(labels.node(f));
        }
        out.push(' ');
        out.push_str(labels.node(id));
        out.push('\n');
        row.clear();
        match kind {
            GateKind::Const0 => {}
            GateKind::Const1 => out.push_str("1\n"),
            GateKind::Buf => out.push_str("1 1\n"),
            GateKind::Not => out.push_str("0 1\n"),
            GateKind::And | GateKind::Nand | GateKind::Nor => {
                let (bit, value) = match kind {
                    GateKind::And => (b'1', " 1\n"),
                    GateKind::Nand => (b'1', " 0\n"),
                    _ => (b'0', " 1\n"),
                };
                row.resize(k, bit);
                push_row(&mut out, &row, value);
            }
            GateKind::Or => {
                row.resize(k, b'-');
                for i in 0..k {
                    row[i] = b'1';
                    push_row(&mut out, &row, " 1\n");
                    row[i] = b'-';
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                row.resize(k, b'0');
                let want_odd = *kind == GateKind::Xor;
                for m in 0..(1u64 << k) {
                    let odd = m.count_ones() % 2 == 1;
                    if odd == want_odd {
                        for (b, r) in row.iter_mut().enumerate() {
                            *r = if m & (1 << b) != 0 { b'1' } else { b'0' };
                        }
                        push_row(&mut out, &row, " 1\n");
                    }
                }
            }
        }
    }

    // outputs that alias internal signals need a buffer row when the signal
    // name differs from the output name
    for (j, (_, sig)) in outputs.iter().enumerate() {
        let label = labels.node(*sig);
        if labels.output(j) != label {
            out.push_str(".names ");
            out.push_str(label);
            out.push(' ');
            out.push_str(labels.output(j));
            out.push_str("\n1 1\n");
        }
    }
    out.push_str(".end\n");
    out
}

/// Appends one cover row and its output value.
fn push_row(out: &mut String, row: &[u8], value: &str) {
    out.push_str(std::str::from_utf8(row).expect("cover rows are ASCII"));
    out.push_str(value);
}

/// Bytes of a gate's cover rows (after its `.names` line) as
/// [`write_blif`] writes them, saturating for absurdly wide parity gates.
fn cover_len(kind: GateKind, k: usize) -> usize {
    let parity_rows = |empty| match k {
        0 => empty,
        1..=63 => 1usize << (k - 1),
        _ => usize::MAX,
    };
    let rows = match kind {
        GateKind::Const0 => return 0,
        GateKind::Const1 => return 2,
        GateKind::Buf | GateKind::Not | GateKind::And | GateKind::Nand | GateKind::Nor => 1,
        GateKind::Or => k,
        GateKind::Xor => parity_rows(0),
        GateKind::Xnor => parity_rows(1),
    };
    rows.saturating_mul(k + 3)
}

/// The label of every node [`write_blif`] writes and of every output,
/// each computed once into one buffer.
struct Labels {
    text: String,
    /// Node `i`'s label at `spans[i]` (`None` if it is not written),
    /// output `j`'s at `spans[num_nodes + j]`.
    spans: Vec<Option<(usize, usize)>>,
    num_nodes: usize,
}

impl Labels {
    /// Labels for the inputs and `order`'s nodes.
    fn new(net: &Network, order: &[SignalId]) -> Labels {
        let n = net.num_nodes();
        let outputs = net.outputs();
        let mut text = String::new();
        let mut spans = vec![None; n + outputs.len()];
        let mut generated = vec![false; n];
        // whether some name needed replacing: only then can two different
        // names share a label
        let mut replaced = false;
        let mut push_name = |text: &mut String, name: &str| {
            let label = sanitize(name);
            replaced |= matches!(label, Cow::Owned(_));
            text.push_str(&label);
        };
        for &id in net.inputs().iter().chain(order) {
            let i = id.index();
            if spans[i].is_some() {
                continue;
            }
            let start = text.len();
            match net.node_name(id) {
                Some(name) => push_name(&mut text, name),
                None => {
                    write!(text, "n{i}").expect("writing to a String");
                    generated[i] = true;
                }
            }
            spans[i] = Some((start, text.len()));
        }
        for (j, (name, _)) in outputs.iter().enumerate() {
            let start = text.len();
            push_name(&mut text, name);
            spans[n + j] = Some((start, text.len()));
        }
        let mut labels = Labels {
            text,
            spans,
            num_nodes: n,
        };
        if replaced {
            labels.separate_names(net, order);
        }
        // unnamed nodes whose `n<i>` a name already uses; an output named
        // after the very node it reads is no clash (it needs no buffer)
        let mut taken: Vec<usize> = (0..labels.spans.len())
            .filter(|&p| p >= n || !generated[p])
            .filter_map(|p| {
                let k = generated_index(labels.at(p)?)?;
                let own_node = p >= n && outputs[p - n].1.index() == k;
                (k < n && generated[k] && !own_node).then_some(k)
            })
            .collect();
        if !taken.is_empty() {
            taken.sort_unstable();
            taken.dedup();
            labels.rename(&taken, &generated);
        }
        labels.separate_outputs(net);
        labels
    }

    /// Gives two different names that sanitize alike two labels: of the
    /// names sharing a label, the one at the lowest position (nodes by
    /// index, then outputs) keeps it, and every other name takes the first
    /// `<label>_<k>` no name or earlier such label uses, for all of its
    /// positions alike. Every such label ends in `_<k>`, so none is an
    /// unnamed node's `n<i>`.
    fn separate_names(&mut self, net: &Network, order: &[SignalId]) {
        let n = self.num_nodes;
        let label = |p: usize| self.at(p).expect("every named position has a label");
        let nodes = (net.inputs().iter().chain(order))
            .filter_map(|&id| Some((id.index(), net.node_name(id)?)));
        let outputs =
            (net.outputs().iter().enumerate()).map(|(j, (name, _))| (n + j, name.as_str()));
        let mut named: Vec<(usize, &str)> = nodes.chain(outputs).collect();
        named.sort_unstable_by(|a, b| label(a.0).cmp(label(b.0)).then(a.0.cmp(&b.0)));
        named.dedup_by_key(|&mut (p, _)| p);
        let mut fresh: Vec<(usize, String)> = Vec::new();
        for group in named.chunk_by(|a, b| label(a.0) == label(b.0)) {
            let (_, owner) = group[0];
            for (g, &(p, name)) in group.iter().enumerate() {
                if name == owner {
                    continue;
                }
                let earlier = group[..g].iter().find(|e| e.1 == name);
                let relabel = match earlier.and_then(|&(q, _)| fresh.iter().find(|f| f.0 == q)) {
                    Some((_, shared)) => shared.clone(),
                    None => first_free(label(p), |l| {
                        named.binary_search_by(|e| label(e.0).cmp(l)).is_ok()
                            || fresh.iter().any(|f| f.1 == l)
                    }),
                };
                fresh.push((p, relabel));
            }
        }
        self.relabel(fresh);
    }

    /// Gives each output whose label is an input's but which reads another
    /// signal (a BLIF signal has one driver, so `.names <g> a` after
    /// `.inputs a` does not read back) the first `<label>_<k>` no position
    /// or earlier such label uses, in output order, as
    /// [`Labels::separate_names`] does. Only inputs carry names, and most
    /// outputs read an unnamed `n<i>`: an input whose label starts with a
    /// byte no such output's does cannot clash, which most inputs show
    /// without a lookup, and the labels are sorted only when one clashes.
    fn separate_outputs(&mut self, net: &Network) {
        let n = self.num_nodes;
        let outputs = net.outputs();
        let reading_other = |j: &usize| self.at(n + j) != self.at(outputs[*j].1.index());
        let first = |l: &str| l.bytes().next().map_or(0, usize::from);
        let mut firsts = [0u64; 4];
        for j in (0..outputs.len()).filter(reading_other) {
            let b = first(self.output(j));
            firsts[b / 64] |= 1 << (b % 64);
        }
        let inputs: FxHashSet<&str> = (net.inputs().iter())
            .map(|&i| self.node(i))
            .filter(|&l| firsts[first(l) / 64] >> (first(l) % 64) & 1 == 1)
            .collect();
        if inputs.is_empty() {
            return;
        }
        let clashing: Vec<usize> = (0..outputs.len())
            .filter(|j| reading_other(j) && inputs.contains(self.output(*j)))
            .collect();
        if clashing.is_empty() {
            return;
        }
        let mut used: Vec<&str> = (0..self.spans.len()).filter_map(|p| self.at(p)).collect();
        used.sort_unstable();
        let mut fresh: Vec<(usize, String)> = Vec::new();
        for j in clashing {
            let relabel = first_free(self.output(j), |l| {
                used.binary_search(&l).is_ok() || fresh.iter().any(|f| f.1 == l)
            });
            fresh.push((n + j, relabel));
        }
        self.relabel(fresh);
    }

    /// Relabels each node in `taken` with the first `n<i>_<k>` that no
    /// input, named node or output uses (two such labels never clash).
    fn rename(&mut self, taken: &[usize], generated: &[bool]) {
        let mut used: Vec<&str> = (0..self.spans.len())
            .filter(|&p| p >= self.num_nodes || !generated[p])
            .filter_map(|p| self.at(p))
            .collect();
        used.sort_unstable();
        let fresh: Vec<(usize, String)> = (taken.iter())
            .map(|&i| {
                (
                    i,
                    first_free(&format!("n{i}"), |l| used.binary_search(&l).is_ok()),
                )
            })
            .collect();
        self.relabel(fresh);
    }

    /// Gives each position `p` of `fresh` its new label.
    fn relabel(&mut self, fresh: Vec<(usize, String)>) {
        for (p, label) in fresh {
            let start = self.text.len();
            self.text.push_str(&label);
            self.spans[p] = Some((start, self.text.len()));
        }
    }

    fn at(&self, p: usize) -> Option<&str> {
        self.spans[p].map(|(start, end)| &self.text[start..end])
    }

    fn node(&self, id: SignalId) -> &str {
        self.at(id.index()).expect("every written node has a label")
    }

    fn output(&self, j: usize) -> &str {
        self.at(self.num_nodes + j)
            .expect("every output has a label")
    }
}

/// The first `<label>_<k>`, `k = 1, 2, …`, that `taken` does not hold.
fn first_free(label: &str, taken: impl Fn(&str) -> bool) -> String {
    (1..)
        .map(|k| format!("{label}_{k}"))
        .find(|l| !taken(l))
        .expect("a free label")
}

/// `k` if `label` is exactly `n<k>`, the label [`write_blif`] gives an
/// unnamed node `k`.
fn generated_index(label: &str) -> Option<usize> {
    let digits = label.strip_prefix('n')?;
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    if canonical {
        digits.parse().ok()
    } else {
        None
    }
}

/// Whether BLIF would not read `c` back as part of a name: whitespace
/// separates tokens, `#` starts a comment, `\` continues a line.
fn needs_replacing(c: char) -> bool {
    c.is_whitespace() || c == '#' || c == '\\'
}

/// `name` with every character BLIF cannot carry in a name replaced by `_`.
fn sanitize(name: &str) -> Cow<'_, str> {
    if name.contains(needs_replacing) {
        Cow::Owned(
            name.chars()
                .map(|c| if needs_replacing(c) { '_' } else { c })
                .collect(),
        )
    } else {
        Cow::Borrowed(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    /// The reader and the pre-rewrite oracle agree on `src`: the same
    /// network node for node, or the same error (an undefined signal is
    /// now reported at the line that references it, not at line 0).
    fn agrees_with_oracle(src: &str) {
        match (oracle::parse_blif(src), parse_blif(src)) {
            (Ok(old), Ok(new)) => assert_eq!(format!("{old:?}"), format!("{new:?}"), "{src}"),
            (Err(old), Err(new)) => {
                assert_eq!(old.message(), new.message(), "{src}");
                if !old.message().starts_with("undefined signal") {
                    assert_eq!(old.line(), new.line(), "{src}");
                }
            }
            (old, new) => panic!("{src}\noracle: {old:?}\nreader: {new:?}"),
        }
    }

    #[test]
    fn reader_matches_the_oracle_on_valid_and_broken_models() {
        for src in [
            XOR2,
            ".model c # comment\n.inputs a \\\n b\n.outputs y z\n.names a b y\n1- 1\n-0 1\n\
             .names y z\n0 1\n.end\n",
            ".model k\n.inputs a\n.outputs one zero w n\n.names one\n1\n.names zero\n\
             .names a w\n1 1\n.names a w n\n11 0\n.end\n",
            ".model o\n.inputs a b\n.outputs y y\n.names t y\n0 1\n.names a b t\n11 1\n",
            ".inputs a\n.outputs y\n.names a y\n2 1\n",
            ".inputs a\n.outputs y\n.names a y\n1 1 1\n",
            ".inputs a\n.outputs y\n.names a y\n1 1\n0 0\n",
            ".inputs a\n.outputs y\n.names a y\n1\n",
            ".inputs a\n.outputs y\n.names a y\n\\\n\n",
            ".inputs a\n.outputs y\n.names\n",
            ".inputs a\n.outputs y\n1 1\n",
            ".inputs a\n.outputs y\n.names a y\n.end\n1 1\n",
            ".inputs a a\n.outputs y\n.names a y\n1 1\n",
            ".inputs a\n.outputs y\n.frob\n",
            ".inputs a\n.outputs y\n.subckt f\n",
            ".inputs a\n.outputs y\n.names a x y\n11 1\n.names y x\n1 1\n",
            ".inputs a\n.outputs y\n.names a é y\n1é 1\n",
            ".inputs a\n.outputs y\n.names a x y\n11 1\n",
        ] {
            agrees_with_oracle(src);
        }
    }

    #[test]
    fn an_over_long_line_is_reported_before_earlier_errors() {
        let src = format!(
            ".model m\n.inputs a\n2 1\n.names {} y\n",
            "a".repeat(MAX_LINE_LEN)
        );
        let err = parse_blif(&src).unwrap_err();
        assert!(err.message().contains("exceeds"), "{err}");
        assert_eq!(err.line(), 4);
        agrees_with_oracle(&src);
    }

    #[test]
    fn a_second_definition_is_an_error_at_its_line() {
        let src = ".model e\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line(), 6, "{err}");
        assert!(err.message().contains("defined twice"), "{err}");
        assert!(err.message().contains("line 4"), "{err}");
    }

    #[test]
    fn names_driving_a_primary_input_is_an_error() {
        let src = ".model e\n.inputs a b\n.outputs y\n.names b a\n0 1\n.names a y\n1 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
        assert!(err.message().contains("primary input a"), "{err}");
    }

    #[test]
    fn an_undefined_signal_names_the_referencing_line() {
        let src = ".model e\n.inputs a\n.outputs y\n.names a z y\n11 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!((err.line(), err.message()), (4, "undefined signal z"));
        let src = ".model e\n.inputs a\n.outputs \\\n y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!((err.line(), err.message()), (3, "undefined signal y"));
    }

    /// `f = (n4 ⊕ n5) + n6·n7` as gates over inputs named `n4..n7`: the
    /// gates sit at indices 4 to 6, whose generated labels were `n4..n6`.
    fn clashing_inputs() -> Network {
        let mut n = Network::new("clash");
        let ins: Vec<SignalId> = (4..8).map(|i| n.add_input(format!("n{i}"))).collect();
        let x = n.add_gate(GateKind::Xor, vec![ins[0], ins[1]]);
        let a = n.add_gate(GateKind::And, vec![ins[2], ins[3]]);
        let f = n.add_gate(GateKind::Or, vec![x, a]);
        n.add_output("f", f);
        n
    }

    /// Outputs named after gates: `n3` reads gate 2, so gate 3 must not be
    /// labelled `n3`; `n2` reads gate 2 itself, which keeps its label.
    fn clashing_outputs() -> Network {
        let mut n = Network::new("clash");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g2 = n.add_gate(GateKind::And, vec![a, b]);
        let g3 = n.add_gate(GateKind::Or, vec![a, b]);
        n.add_output("n3", g2);
        n.add_output("n2", g2);
        n.add_output("y", g3);
        n
    }

    #[test]
    fn generated_labels_avoid_every_name() {
        for (net, inputs, clash) in [
            (clashing_inputs(), 4, ".names n4 n5 n4_1\n"),
            (clashing_outputs(), 2, ".names a b n3_1\n"),
        ] {
            let text = write_blif(&net);
            assert!(text.contains(clash), "{text}");
            let back = parse_blif(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            for m in 0..1 << inputs {
                assert_eq!(back.eval_u64(m), net.eval_u64(m), "at {m}\n{text}");
            }
            // the pre-rewrite writer reused the labels, and its text reads
            // back as another function
            let old = oracle::parse_blif(&oracle::write_blif(&net)).expect("old reader accepts");
            assert!((0..1 << inputs).any(|m| old.eval_u64(m) != net.eval_u64(m)));
        }
        assert!(write_blif(&clashing_outputs()).contains(".names a b n2\n"));
    }

    #[test]
    fn names_that_sanitize_alike_get_distinct_labels() {
        // inputs `a b`/`a_b`, outputs `x#`/`x\` on two gates, and an
        // output `a_b` that reads input `a_b`, so it shares its label
        let mut n = Network::new("alike");
        let a = n.add_input("a b");
        let b = n.add_input("a_b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        let h = n.add_gate(GateKind::Or, vec![a, b]);
        n.add_output("x#", g);
        n.add_output("x\\", h);
        n.add_output("a_b", b);
        let text = write_blif(&n);
        assert!(text.contains(".inputs a_b a_b_1\n"), "{text}");
        assert!(text.contains(".outputs x_ x__1 a_b_1\n"), "{text}");
        assert!(text.contains(".names n3 x__1\n"), "{text}");
        assert!(!text.contains(" a_b_1\n1 1\n"), "{text}");
        let back = parse_blif(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        for m in 0..4 {
            assert_eq!(back.eval_u64(m), n.eval_u64(m), "at {m}\n{text}");
        }
        // the pre-fix writer gave both inputs one label
        assert!(oracle::parse_blif(&oracle::write_blif(&n)).is_err());
    }

    #[test]
    fn outputs_named_like_an_input_they_do_not_read_get_labels_of_their_own() {
        // output `a` reads `a·b`, output `b` reads input `b`; then inputs
        // `n3`/`x` and outputs `n3`, reading gate 3, whose `n3` the input
        // takes, and `x`, reading input `n3`
        let mut n = Network::new("twins");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("a", g);
        n.add_output("b", b);
        let text = write_blif(&n);
        assert!(
            text.contains(".outputs a_1 b\n.names a b n2\n11 1\n.names n2 a_1\n"),
            "{text}"
        );
        // the old writer's `.names n2 a` redefines input `a`
        assert!(parse_blif(&oracle::write_blif(&n)).is_err());
        let mut m = Network::new("twins");
        let n3 = m.add_input("n3");
        let x = m.add_input("x");
        let xor = m.add_gate(GateKind::Xor, vec![n3, x]);
        let g = m.add_gate(GateKind::Not, vec![xor]);
        assert_eq!(g.index(), 3);
        m.add_output("n3", g);
        m.add_output("x", n3);
        let text = write_blif(&m);
        assert!(text.contains(".outputs n3_2 x_1\n"), "{text}");
        assert!(text.contains(".names n2 n3_1\n"), "{text}");
        for (net, text) in [(&n, write_blif(&n)), (&m, text)] {
            let back = parse_blif(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            for v in 0..4 {
                assert_eq!(back.eval_u64(v), net.eval_u64(v), "at {v}\n{text}");
            }
        }
    }

    #[test]
    fn names_with_comment_and_continuation_characters_round_trip() {
        for model in ["a#b", "x\\", "t\tw o"] {
            let mut n = Network::new(model);
            let a = n.add_input("in#1");
            let b = n.add_input("in\\");
            let g = n.add_gate(GateKind::And, vec![a, b]);
            n.add_output("y#", g);
            let text = write_blif(&n);
            let back = parse_blif(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back.name(), model.replace(['#', '\\', '\t', ' '], "_"));
            for m in 0..4 {
                assert_eq!(back.eval_u64(m), n.eval_u64(m), "{text}");
            }
        }
    }

    #[test]
    fn writer_matches_the_oracle_when_no_label_clashes() {
        let mut n = Network::new("all kinds");
        let a = n.add_input("a");
        let b = n.add_input("b c");
        let c = n.add_input("n1");
        let k0 = n.add_gate(GateKind::Const0, vec![]);
        let k1 = n.add_gate(GateKind::Const1, vec![]);
        let g1 = n.add_gate(GateKind::Nand, vec![a, b, k1]);
        let g2 = n.add_gate(GateKind::Nor, vec![b, c]);
        let g3 = n.add_gate(GateKind::Xor, vec![g1, g2, a]);
        let g4 = n.add_gate(GateKind::Xnor, vec![g3, c, k0]);
        let g5 = n.add_gate(GateKind::Or, vec![g4, g1, g2]);
        let g6 = n.add_gate(GateKind::Not, vec![g5]);
        let g7 = n.add_gate(GateKind::Buf, vec![g6]);
        let g8 = n.add_gate(GateKind::And, vec![g7, a]);
        n.add_output("y", g8);
        n.add_output("z", g3);
        n.add_output("a", a);
        n.add_output("b c", b);
        n.add_output("n10", g6);
        let text = write_blif(&n);
        assert_eq!(text, oracle::write_blif(&n));
        assert_eq!(text.len(), text.capacity(), "sized exactly");
        agrees_with_oracle(&text);
    }

    const XOR2: &str = "\
.model xor2
.inputs a b
.outputs y
.names a b y
10 1
01 1
.end
";

    #[test]
    fn parse_xor2() {
        let net = parse_blif(XOR2).unwrap();
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.outputs().len(), 1);
        for m in 0..4u64 {
            assert_eq!(net.eval_u64(m)[0], (m & 1 != 0) ^ (m & 2 != 0));
        }
    }

    #[test]
    fn parse_offset_cover() {
        // f defined by its zero rows: f = NOT(a·b)
        let src = "\
.model nand
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let net = parse_blif(src).unwrap();
        for m in 0..4u64 {
            assert_eq!(net.eval_u64(m)[0], !(m & 1 != 0 && m & 2 != 0));
        }
    }

    #[test]
    fn parse_constants_and_wires() {
        let src = "\
.model k
.inputs a
.outputs one zero w
.names one
1
.names zero
.names a w
1 1
.end
";
        let net = parse_blif(src).unwrap();
        assert_eq!(net.eval_u64(0), vec![true, false, false]);
        assert_eq!(net.eval_u64(1), vec![true, false, true]);
    }

    #[test]
    fn parse_out_of_order_definitions() {
        let src = "\
.model ooo
.inputs a b
.outputs y
.names t y
0 1
.names a b t
11 1
.end
";
        let net = parse_blif(src).unwrap();
        for m in 0..4u64 {
            assert_eq!(net.eval_u64(m)[0], !(m & 1 != 0 && m & 2 != 0));
        }
    }

    #[test]
    fn parse_continuation_and_comments() {
        let src = "\
.model c # a comment
.inputs a \\
b
.outputs y
.names a b y # cover follows
11 1
.end
";
        let net = parse_blif(src).unwrap();
        assert_eq!(net.inputs().len(), 2);
        assert!(net.eval_u64(0b11)[0]);
    }

    #[test]
    fn error_on_bad_cube() {
        let src = ".model e\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line(), 5);
        assert!(err.message().contains("bad cube"));
    }

    #[test]
    fn error_on_width_mismatch() {
        let src = ".model e\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message().contains("width"));
    }

    #[test]
    fn error_on_undefined_signal() {
        let src = ".model e\n.inputs a\n.outputs y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message().contains("undefined"));
    }

    #[test]
    fn error_on_latch() {
        let src = ".model e\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message().contains("latch"));
    }

    #[test]
    fn error_on_cycle() {
        let src = "\
.model cyc
.inputs a
.outputs y
.names a x y
11 1
.names y x
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message().contains("cyclic"));
    }

    #[test]
    fn roundtrip_all_gate_kinds() {
        use xsynth_net::{GateKind, Network};
        let mut n = Network::new("rt");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::Nand, vec![a, b]);
        let g2 = n.add_gate(GateKind::Nor, vec![b, c]);
        let g3 = n.add_gate(GateKind::Xor, vec![g1, g2, a]);
        let g4 = n.add_gate(GateKind::Xnor, vec![g3, c]);
        let g5 = n.add_gate(GateKind::Or, vec![g4, g1]);
        let g6 = n.add_gate(GateKind::Not, vec![g5]);
        n.add_output("y", g6);
        n.add_output("z", g3);
        let text = write_blif(&n);
        let back = parse_blif(&text).unwrap();
        for m in 0..8u64 {
            assert_eq!(back.eval_u64(m), n.eval_u64(m), "at {m}\n{text}");
        }
    }

    #[test]
    fn roundtrip_output_aliasing_input() {
        use xsynth_net::Network;
        let mut n = Network::new("alias");
        let a = n.add_input("a");
        n.add_output("y", a);
        let text = write_blif(&n);
        let back = parse_blif(&text).unwrap();
        assert_eq!(back.eval_u64(1), vec![true]);
        assert_eq!(back.eval_u64(0), vec![false]);
    }
}
