//! Cell libraries for technology mapping.

use xsynth_boolean::{FxHashMap, TruthTable};

/// A combinational standard cell: name, area, and function over its input
/// pins (at most four — the mapper enumerates 4-feasible cuts).
#[derive(Debug, Clone)]
pub struct Cell {
    name: String,
    area: f64,
    pins: usize,
    tt: u16,
}

impl Cell {
    /// Builds a cell from a truth-table word over `pins` inputs (bit `m` =
    /// value on minterm `m`).
    ///
    /// # Panics
    ///
    /// Panics if `pins > 4`.
    pub fn new(name: impl Into<String>, area: f64, pins: usize, tt: u16) -> Self {
        assert!(pins <= 4, "mapper cells have at most 4 pins");
        let mask = tt_mask(pins);
        Cell {
            name: name.into(),
            area,
            pins,
            tt: tt & mask,
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell area (arbitrary units; relative values drive the mapper).
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Number of input pins.
    pub fn num_pins(&self) -> usize {
        self.pins
    }

    /// The function as a 16-bit truth-table word.
    pub fn tt(&self) -> u16 {
        self.tt
    }
}

/// Mask of the truth-table bits that are meaningful over `pins` inputs.
pub(crate) fn tt_mask(pins: usize) -> u16 {
    if pins >= 4 {
        0xffff
    } else {
        ((1u32 << (1 << pins)) - 1) as u16
    }
}

/// A mapping library: a set of [`Cell`]s with a precomputed Boolean-match
/// index over all input permutations.
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<Cell>,
    /// (pins, canonical tt) → (cell index, permutation): `perm[i]` is the
    /// cut-leaf position feeding pin `i`.
    matches: FxHashMap<(usize, u16), (usize, Vec<usize>)>,
}

impl Library {
    /// Builds a library from cells, indexing every input permutation of
    /// every cell (cheapest cell wins collisions).
    pub fn new(cells: Vec<Cell>) -> Self {
        let mut matches: FxHashMap<(usize, u16), (usize, Vec<usize>)> = FxHashMap::default();
        for (ci, cell) in cells.iter().enumerate() {
            for perm in permutations(cell.pins) {
                // tt_perm(m) — the function seen from the cut: leaf j of
                // the cut feeds pin i when perm[i] = j
                let tt = permute_tt(cell.tt, cell.pins, &perm);
                let key = (cell.pins, tt);
                let better = match matches.get(&key) {
                    Some(&(old, _)) => cell.area < cells[old].area,
                    None => true,
                };
                if better {
                    matches.insert(key, (ci, perm));
                }
            }
        }
        Library { cells, matches }
    }

    /// The mcnc.genlib-like library the paper maps onto: inverter, buffer,
    /// 2-input AND/OR, NAND/NOR of 2–4 inputs, 2-input XOR/XNOR, the four
    /// complex cells AOI21/AOI22/OAI21/OAI22, and zero/one tie cells.
    pub fn mcnc() -> Library {
        let tt = |pins: usize, f: &dyn Fn(u16) -> bool| -> u16 {
            let mut t = 0u16;
            for m in 0..(1u32 << pins) as u16 {
                if f(m) {
                    t |= 1 << m;
                }
            }
            t
        };
        let and = |pins: usize| tt(pins, &|m| m == ((1u32 << pins) - 1) as u16);
        let or = |pins: usize| tt(pins, &|m| m != 0);
        let cells = vec![
            Cell::new("zero", 0.0, 0, 0b0),
            Cell::new("one", 0.0, 0, 0b1),
            Cell::new("inv", 1.0, 1, 0b01),
            Cell::new("buf", 1.0, 1, 0b10),
            Cell::new("nand2", 2.0, 2, !and(2) & 0xf),
            Cell::new("nand3", 3.0, 3, !and(3) & 0xff),
            Cell::new("nand4", 4.0, 4, !and(4)),
            Cell::new("nor2", 2.0, 2, !or(2) & 0xf),
            Cell::new("nor3", 3.0, 3, !or(3) & 0xff),
            Cell::new("nor4", 4.0, 4, !or(4)),
            Cell::new("and2", 3.0, 2, and(2)),
            Cell::new("or2", 3.0, 2, or(2)),
            Cell::new("xor2", 5.0, 2, 0b0110),
            Cell::new("xnor2", 5.0, 2, 0b1001),
            // aoi21: !(a·b + c)
            Cell::new(
                "aoi21",
                3.0,
                3,
                tt(3, &|m| !((m & 1 != 0 && m & 2 != 0) || m & 4 != 0)),
            ),
            // aoi22: !(a·b + c·d)
            Cell::new(
                "aoi22",
                4.0,
                4,
                tt(4, &|m| {
                    !((m & 1 != 0 && m & 2 != 0) || (m & 4 != 0 && m & 8 != 0))
                }),
            ),
            // oai21: !((a + b)·c)
            Cell::new(
                "oai21",
                3.0,
                3,
                tt(3, &|m| !((m & 1 != 0 || m & 2 != 0) && m & 4 != 0)),
            ),
            // oai22: !((a + b)·(c + d))
            Cell::new(
                "oai22",
                4.0,
                4,
                tt(4, &|m| {
                    !((m & 1 != 0 || m & 2 != 0) && (m & 4 != 0 || m & 8 != 0))
                }),
            ),
        ];
        Library::new(cells)
    }

    /// The cells of the library.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Finds the cheapest cell matching a cut function of `pins` leaves;
    /// returns `(cell index, permutation)` with `perm[i]` = the cut-leaf
    /// position feeding pin `i`.
    pub fn matches(&self, pins: usize, tt: u16) -> Option<(usize, &[usize])> {
        self.matches
            .get(&(pins, tt & tt_mask(pins)))
            .map(|(ci, perm)| (*ci, perm.as_slice()))
    }

    /// The full truth table of a cell, for verification.
    pub fn cell_table(&self, cell: usize) -> TruthTable {
        let c = &self.cells[cell];
        TruthTable::from_fn(c.pins, |m| c.tt & (1 << m) != 0)
    }
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..k).collect();
    permute_rec(&mut items, 0, &mut out);
    if out.is_empty() {
        out.push(Vec::new());
    }
    out
}

fn permute_rec(items: &mut Vec<usize>, i: usize, out: &mut Vec<Vec<usize>>) {
    if items.is_empty() {
        return;
    }
    if i == items.len() {
        out.push(items.clone());
        return;
    }
    for j in i..items.len() {
        items.swap(i, j);
        permute_rec(items, i + 1, out);
        items.swap(i, j);
    }
}

/// The function seen from cut leaves when `perm[i]` names the leaf feeding
/// pin `i`: `tt'(leaf-minterm) = tt(pin-minterm)`.
fn permute_tt(tt: u16, pins: usize, perm: &[usize]) -> u16 {
    let mut out = 0u16;
    for lm in 0..(1u32 << pins) as u16 {
        // build the pin minterm: pin i reads leaf perm[i]
        let mut pm = 0u16;
        for (i, &leaf) in perm.iter().enumerate() {
            if lm & (1 << leaf) != 0 {
                pm |= 1 << i;
            }
        }
        if tt & (1 << pm) != 0 {
            out |= 1 << lm;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcnc_has_expected_cells() {
        let lib = Library::mcnc();
        let names: Vec<&str> = lib.cells().iter().map(Cell::name).collect();
        for want in ["inv", "nand2", "nor4", "xor2", "xnor2", "aoi22", "oai21"] {
            assert!(names.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn and2_matches() {
        let lib = Library::mcnc();
        let (ci, _) = lib.matches(2, 0b1000).expect("and2 function");
        assert_eq!(lib.cells()[ci].name(), "and2");
    }

    #[test]
    fn xor_matches() {
        let lib = Library::mcnc();
        let (ci, _) = lib.matches(2, 0b0110).expect("xor2 function");
        assert_eq!(lib.cells()[ci].name(), "xor2");
    }

    #[test]
    fn asymmetric_cell_matches_any_pin_order() {
        let lib = Library::mcnc();
        // aoi21 with the OR-pin being leaf 0: !(bc + a) as seen from
        // leaves (a,b,c)
        let f = |m: u16| !((m & 2 != 0 && m & 4 != 0) || m & 1 != 0);
        let mut tt = 0u16;
        for m in 0..8u16 {
            if f(m) {
                tt |= 1 << m;
            }
        }
        let (ci, perm) = lib.matches(3, tt).expect("permuted aoi21");
        assert_eq!(lib.cells()[ci].name(), "aoi21");
        // pins (a,b) of the cell are the AND side; they must read leaves
        // {1,2}, and pin c must read leaf 0
        assert_eq!(perm[2], 0);
        let mut ab = vec![perm[0], perm[1]];
        ab.sort_unstable();
        assert_eq!(ab, vec![1, 2]);
    }

    #[test]
    fn permute_tt_identity() {
        assert_eq!(permute_tt(0b0110, 2, &[0, 1]), 0b0110);
        // swapping pins of xor changes nothing
        assert_eq!(permute_tt(0b0110, 2, &[1, 0]), 0b0110);
        // and2 is also symmetric; g(a,b)=a·¬b is not
        let g = 0b0010; // minterm 1 (a=1,b=0)
        assert_eq!(permute_tt(g, 2, &[1, 0]), 0b0100);
    }

    #[test]
    fn constants_and_wire_cells() {
        let lib = Library::mcnc();
        assert!(lib.matches(0, 0b0).is_some(), "zero cell");
        assert!(lib.matches(0, 0b1).is_some(), "one cell");
        assert!(lib.matches(1, 0b01).is_some(), "inverter");
        assert!(lib.matches(1, 0b10).is_some(), "buffer");
    }

    #[test]
    fn cell_table_matches_word() {
        let lib = Library::mcnc();
        let (ci, _) = lib.matches(2, 0b0110).unwrap();
        let t = lib.cell_table(ci);
        assert!(t.eval(0b01));
        assert!(!t.eval(0b11));
    }
}
