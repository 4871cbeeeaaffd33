//! Vectorized batch evaluation for fully-mergeable digest programs.
//!
//! The sharded GPA buffers each shard replica's records as *columns*
//! of raw input bits (one `&[i64]` per declared input, one lane per
//! record). Running the scalar VM row-at-a-time from those columns
//! pays interpreter dispatch, stack traffic, and fuel checks per
//! record. This module compiles the same bytecode once into a short
//! linear program of *vector ops* that each sweep a whole batch, so the
//! dispatch cost amortizes across ~1k lanes and the inner loops
//! autovectorize.
//!
//! # Why this is legal, and exactly when
//!
//! Vectorization reorders evaluation: all lanes execute vector op `i`
//! before any lane executes op `i + 1`, where the scalar VM runs each
//! record to completion before the next. The merge analysis
//! ([`MergePlan`], DESIGN.md §10) is what makes that reordering
//! invisible. In a fully-mergeable program every read of mutable static
//! state occurs *only* inside that static's own accumulation pattern
//! (`g = g + d`, `g = min(g, v)`, gated constant writes), every delta
//! and every branch condition is input-only, and each accumulation
//! fold is associative and commutative on the bit level (`wrapping_add`,
//! `i64::min`/`max`, "any lane stored the constant"). So per-lane
//! computations depend only on that lane's inputs — they evaluate
//! full-width with no cross-lane hazard — and static updates become
//! masked *reductions* whose fold order cannot change the result.
//! Anything outside that shape (reads of mutable statics escaping their
//! accumulation pattern, `out()` streams, non-constant divisors,
//! float accumulation) makes [`BatchEval::try_compile`] return `None`
//! and the caller falls back to the scalar VM.
//!
//! # Bit-exactness contract
//!
//! For a batch of `n` rows, [`BatchEval::run`] leaves the instance's
//! statics bit-identical to `n` scalar [`Instance::run_raw`] calls in
//! row order, and returns the exact total `fuel_used` those calls would
//! have reported. Control flow is compiled to 0/1 lane masks
//! (`JmpIfFalse` splits a mask, joins OR them back and blend divergent
//! stack values), and fuel is metered exactly: every original opcode
//! charges 1 per lane that executes it, accumulated per straight-line
//! segment as `ops × popcount(mask)`. Programs whose verified worst-case
//! fuel bound exceeds the host's budget are not vectorized at all, so
//! the vector path can never hit `OutOfFuel` mid-batch — and because
//! non-constant divisors bail at compile time it can never trap — which
//! is why it needs no per-lane abort story. Return values and `out()`
//! are *not* produced: the digest only observes statics and fuel.

use std::collections::{BTreeMap, HashMap};

use crate::analysis::{fuel, MergeClass, MergePlan, MinMaxOp};
use crate::compile::Program;
use crate::vm::{Instance, Op};

/// Where a vector operand's column lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    /// Caller-provided input column (index into the `cols` argument).
    Input(u16),
    /// Scratch register column written by an earlier vector op (SSA).
    Reg(u16),
    /// Per-lane local-variable column (mutable; zeroed each batch).
    Local(u16),
    /// Pool column: a broadcast constant or a read-only static splat.
    Pool(u16),
}

/// Lane mask: `None` means "all lanes", otherwise a 0/1 column.
type Mask = Option<Src>;

/// Two-operand lane-wise kernels. Each mirrors one scalar opcode's
/// semantics exactly (wrapping integer arithmetic, IEEE doubles via
/// `to_bits`/`from_bits`, comparisons producing 0/1).
#[derive(Debug, Clone, Copy)]
enum BinK {
    AddI,
    SubI,
    MulI,
    DivI,
    ModI,
    AddF,
    SubF,
    MulF,
    DivF,
    EqI,
    NeI,
    LtI,
    LeI,
    GtI,
    GeI,
    EqF,
    NeF,
    LtF,
    LeF,
    GtF,
    GeF,
    MinI,
    MinF,
    MaxI,
    MaxF,
    /// Mask AND (operands are 0/1 lanes).
    AndB,
    /// `a AND NOT b` (operands are 0/1 lanes) — the else-mask split.
    AndNotB,
    /// Mask OR (operands are 0/1 lanes) — the join.
    OrB,
}

/// One-operand lane-wise kernels.
#[derive(Debug, Clone, Copy)]
enum UnK {
    NegI,
    NegF,
    NotB,
    AbsI,
    AbsF,
    I2F,
}

/// A compiled vector instruction.
#[derive(Debug, Clone, Copy)]
enum VOp {
    /// `dst[l] = k(a[l], b[l])` for every lane (unmasked: lane-pure).
    Bin { k: BinK, a: Src, b: Src, dst: u16 },
    /// `dst[l] = k(a[l])` for every lane.
    Un { k: UnK, a: Src, dst: u16 },
    /// `dst[l] = if m[l] != 0 { b[l] } else { a[l] }` — stack join.
    Blend { m: Src, a: Src, b: Src, dst: u16 },
    /// `dst[l] = a[l]` — materializes a local snapshot before the local
    /// is overwritten.
    Copy { a: Src, dst: u16 },
    /// `local[l] = a[l]` where the mask is set.
    StoreLocal { local: u16, a: Src, m: Mask },
    /// Counter fold: `g += Σ delta[l]` over masked lanes (wrapping).
    ReduceAdd { slot: u16, delta: Src, m: Mask },
    /// Min fold: `g = min(g, v[l])` over masked lanes.
    ReduceMin { slot: u16, v: Src, m: Mask },
    /// Max fold: `g = max(g, v[l])` over masked lanes.
    ReduceMax { slot: u16, v: Src, m: Mask },
    /// Gated latch: `g = bits` if any masked lane reached the store.
    GatedStore { slot: u16, bits: i64, m: Mask },
    /// Fuel meter: charge `ops` per lane in the mask.
    Fuel { ops: u32, m: Mask },
}

/// How a pool column gets its value.
#[derive(Debug, Clone, Copy)]
enum PoolEntry {
    /// Broadcast constant (raw bits); filled when the pool is (re)sized.
    Const(i64),
    /// Splat of a read-only static's current value; refilled every run
    /// so the batch sees exactly what the scalar VM would read.
    Global(u16),
}

/// A pure per-lane value: a known constant or a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PV {
    C(i64),
    S(Src),
}

/// Which accumulation family an in-flight static update belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccK {
    Add,
    Min,
    Max,
}

/// Abstract stack cell during vectorization.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cell {
    /// Lane-pure value.
    P(PV),
    /// `LoadGlobal` of a mutable static, not yet folded into an update.
    G(u16),
    /// Partially-built accumulation: `global[slot] <fold> operand`.
    A { slot: u16, k: AccK, d: PV },
}

/// A control-flow edge parked at a forward jump target.
#[derive(Debug, Clone)]
struct Edge {
    mask: Mask,
    stack: Vec<Cell>,
}

/// A digest program compiled for whole-batch evaluation, plus its
/// reusable column arenas. Create one per digest with
/// [`try_compile`](BatchEval::try_compile); call
/// [`run`](BatchEval::run) per batch.
#[derive(Debug, Clone)]
pub struct BatchEval {
    vops: Vec<VOp>,
    n_inputs: usize,
    /// Input positions the program reads; only these columns are
    /// touched (and length-checked) by [`run`](BatchEval::run).
    used_inputs: Vec<u16>,
    pool_init: Vec<PoolEntry>,
    /// Pool entries that splat statics, refreshed every run.
    gsplats: Vec<(u16, u16)>,
    regs: Vec<Vec<i64>>,
    locals: Vec<Vec<i64>>,
    pool: Vec<Vec<i64>>,
    width: usize,
}

impl BatchEval {
    /// Compiles `program` for batch evaluation. Returns `None` when the
    /// program is outside the vectorizable class — the caller must then
    /// evaluate rows with the scalar VM. `fuel_budget` is the per-row
    /// budget the host would pass to [`Instance::run_raw`]; programs
    /// whose statically-proven worst-case fuel exceeds it are rejected
    /// here so the batch path never needs a per-lane abort.
    pub fn try_compile(program: &Program, plan: &MergePlan, fuel_budget: u64) -> Option<BatchEval> {
        if !plan.fully_mergeable() || fuel::max_fuel(&program.code) > fuel_budget {
            return None;
        }
        Vectorizer::new(program, plan).compile()
    }

    /// Evaluates `rows` lanes against `inst`'s statics and returns the
    /// exact total fuel the scalar VM would have used. `cols` holds one
    /// column of raw input bits per declared input (same contract as
    /// [`Instance::run_raw`]), each at least `rows` long — except
    /// columns of inputs the program never reads
    /// ([`Program::used_inputs`]), which may be left empty.
    pub fn run(&mut self, inst: &mut Instance, cols: &[&[i64]], rows: usize) -> u64 {
        assert_eq!(cols.len(), self.n_inputs, "input column count mismatch");
        assert!(
            self.used_inputs
                .iter()
                .all(|&i| cols[i as usize].len() >= rows),
            "short input column"
        );
        if rows == 0 {
            return 0;
        }
        self.ensure_width(rows);
        for &(pix, slot) in &self.gsplats {
            let v = inst.raw_globals()[slot as usize];
            self.pool[pix as usize][..rows].fill(v);
        }
        for col in &mut self.locals {
            col[..rows].fill(0);
        }

        let mut fuel_used = 0u64;
        for vi in 0..self.vops.len() {
            // `dst` columns are taken out of the arena for the duration
            // of one vector op so operands can be borrowed from `self`;
            // SSA register allocation guarantees `dst` is never also an
            // operand of the same op.
            match self.vops[vi] {
                VOp::Bin { k, a, b, dst } => {
                    let mut d = std::mem::take(&mut self.regs[dst as usize]);
                    bin_kernel(k, &mut d[..rows], self.col(a, cols), self.col(b, cols));
                    self.regs[dst as usize] = d;
                }
                VOp::Un { k, a, dst } => {
                    let mut d = std::mem::take(&mut self.regs[dst as usize]);
                    un_kernel(k, &mut d[..rows], self.col(a, cols));
                    self.regs[dst as usize] = d;
                }
                VOp::Blend { m, a, b, dst } => {
                    let mut d = std::mem::take(&mut self.regs[dst as usize]);
                    {
                        let (m, a, b) = (self.col(m, cols), self.col(a, cols), self.col(b, cols));
                        for l in 0..rows {
                            d[l] = if m[l] != 0 { b[l] } else { a[l] };
                        }
                    }
                    self.regs[dst as usize] = d;
                }
                VOp::Copy { a, dst } => {
                    let mut d = std::mem::take(&mut self.regs[dst as usize]);
                    d[..rows].copy_from_slice(&self.col(a, cols)[..rows]);
                    self.regs[dst as usize] = d;
                }
                VOp::StoreLocal { local, a, m } => {
                    let mut d = std::mem::take(&mut self.locals[local as usize]);
                    {
                        let a = self.col(a, cols);
                        match m.map(|m| self.col(m, cols)) {
                            None => d[..rows].copy_from_slice(&a[..rows]),
                            Some(m) => {
                                for l in 0..rows {
                                    if m[l] != 0 {
                                        d[l] = a[l];
                                    }
                                }
                            }
                        }
                    }
                    self.locals[local as usize] = d;
                }
                VOp::ReduceAdd { slot, delta, m } => {
                    let mut acc = 0i64;
                    let d = self.col(delta, cols);
                    match m.map(|m| self.col(m, cols)) {
                        None => {
                            for &v in &d[..rows] {
                                acc = acc.wrapping_add(v);
                            }
                        }
                        Some(m) => {
                            for l in 0..rows {
                                let keep = -((m[l] != 0) as i64);
                                acc = acc.wrapping_add(d[l] & keep);
                            }
                        }
                    }
                    let g = &mut inst.globals_mut()[slot as usize];
                    *g = g.wrapping_add(acc);
                }
                VOp::ReduceMin { slot, v, m } => {
                    let mut cur = inst.raw_globals()[slot as usize];
                    let d = self.col(v, cols);
                    match m.map(|m| self.col(m, cols)) {
                        None => {
                            for &v in &d[..rows] {
                                cur = cur.min(v);
                            }
                        }
                        Some(m) => {
                            for l in 0..rows {
                                cur = cur.min(if m[l] != 0 { d[l] } else { i64::MAX });
                            }
                        }
                    }
                    inst.globals_mut()[slot as usize] = cur;
                }
                VOp::ReduceMax { slot, v, m } => {
                    let mut cur = inst.raw_globals()[slot as usize];
                    let d = self.col(v, cols);
                    match m.map(|m| self.col(m, cols)) {
                        None => {
                            for &v in &d[..rows] {
                                cur = cur.max(v);
                            }
                        }
                        Some(m) => {
                            for l in 0..rows {
                                cur = cur.max(if m[l] != 0 { d[l] } else { i64::MIN });
                            }
                        }
                    }
                    inst.globals_mut()[slot as usize] = cur;
                }
                VOp::GatedStore { slot, bits, m } => {
                    let fired = match m.map(|m| self.col(m, cols)) {
                        None => true,
                        Some(m) => m[..rows].iter().any(|&v| v != 0),
                    };
                    if fired {
                        inst.globals_mut()[slot as usize] = bits;
                    }
                }
                VOp::Fuel { ops, m } => {
                    let lanes = match m.map(|m| self.col(m, cols)) {
                        None => rows as u64,
                        Some(m) => m[..rows].iter().map(|&v| (v != 0) as u64).sum(),
                    };
                    fuel_used += ops as u64 * lanes;
                }
            }
        }
        fuel_used
    }

    fn ensure_width(&mut self, rows: usize) {
        if self.width >= rows {
            return;
        }
        self.width = rows;
        for r in &mut self.regs {
            r.resize(rows, 0);
        }
        for l in &mut self.locals {
            l.resize(rows, 0);
        }
        for (col, entry) in self.pool.iter_mut().zip(&self.pool_init) {
            col.resize(rows, 0);
            if let PoolEntry::Const(bits) = entry {
                col.fill(*bits);
            }
        }
    }

    fn col<'a>(&'a self, src: Src, cols: &'a [&'a [i64]]) -> &'a [i64] {
        match src {
            Src::Input(i) => cols[i as usize],
            Src::Reg(i) => &self.regs[i as usize],
            Src::Local(i) => &self.locals[i as usize],
            Src::Pool(i) => &self.pool[i as usize],
        }
    }
}

fn bin_kernel(k: BinK, d: &mut [i64], a: &[i64], b: &[i64]) {
    #[inline(always)]
    fn lanes(d: &mut [i64], a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> i64) {
        let n = d.len();
        for ((d, &x), &y) in d.iter_mut().zip(&a[..n]).zip(&b[..n]) {
            *d = f(x, y);
        }
    }
    #[inline(always)]
    fn f(x: i64) -> f64 {
        f64::from_bits(x as u64)
    }
    #[inline(always)]
    fn fb(x: f64) -> i64 {
        x.to_bits() as i64
    }
    match k {
        BinK::AddI => lanes(d, a, b, |x, y| x.wrapping_add(y)),
        BinK::SubI => lanes(d, a, b, |x, y| x.wrapping_sub(y)),
        BinK::MulI => lanes(d, a, b, |x, y| x.wrapping_mul(y)),
        // Divisors are compile-time constants proven nonzero, so the
        // full-lane sweep cannot trap.
        BinK::DivI => lanes(d, a, b, |x, y| x.wrapping_div(y)),
        BinK::ModI => lanes(d, a, b, |x, y| x.wrapping_rem(y)),
        BinK::AddF => lanes(d, a, b, |x, y| fb(f(x) + f(y))),
        BinK::SubF => lanes(d, a, b, |x, y| fb(f(x) - f(y))),
        BinK::MulF => lanes(d, a, b, |x, y| fb(f(x) * f(y))),
        BinK::DivF => lanes(d, a, b, |x, y| fb(f(x) / f(y))),
        BinK::EqI => lanes(d, a, b, |x, y| (x == y) as i64),
        BinK::NeI => lanes(d, a, b, |x, y| (x != y) as i64),
        BinK::LtI => lanes(d, a, b, |x, y| (x < y) as i64),
        BinK::LeI => lanes(d, a, b, |x, y| (x <= y) as i64),
        BinK::GtI => lanes(d, a, b, |x, y| (x > y) as i64),
        BinK::GeI => lanes(d, a, b, |x, y| (x >= y) as i64),
        BinK::EqF => lanes(d, a, b, |x, y| (f(x) == f(y)) as i64),
        BinK::NeF => lanes(d, a, b, |x, y| (f(x) != f(y)) as i64),
        BinK::LtF => lanes(d, a, b, |x, y| (f(x) < f(y)) as i64),
        BinK::LeF => lanes(d, a, b, |x, y| (f(x) <= f(y)) as i64),
        BinK::GtF => lanes(d, a, b, |x, y| (f(x) > f(y)) as i64),
        BinK::GeF => lanes(d, a, b, |x, y| (f(x) >= f(y)) as i64),
        BinK::MinI => lanes(d, a, b, |x, y| x.min(y)),
        BinK::MinF => lanes(d, a, b, |x, y| fb(f(x).min(f(y)))),
        BinK::MaxI => lanes(d, a, b, |x, y| x.max(y)),
        BinK::MaxF => lanes(d, a, b, |x, y| fb(f(x).max(f(y)))),
        BinK::AndB => lanes(d, a, b, |x, y| x & y),
        BinK::AndNotB => lanes(d, a, b, |x, y| x & (y ^ 1)),
        BinK::OrB => lanes(d, a, b, |x, y| x | y),
    }
}

fn un_kernel(k: UnK, d: &mut [i64], a: &[i64]) {
    #[inline(always)]
    fn lanes(d: &mut [i64], a: &[i64], f: impl Fn(i64) -> i64) {
        let n = d.len();
        for (d, &x) in d.iter_mut().zip(&a[..n]) {
            *d = f(x);
        }
    }
    match k {
        UnK::NegI => lanes(d, a, |x| x.wrapping_neg()),
        UnK::NegF => lanes(d, a, |x| (-f64::from_bits(x as u64)).to_bits() as i64),
        UnK::NotB => lanes(d, a, |x| (x == 0) as i64),
        UnK::AbsI => lanes(d, a, |x| x.wrapping_abs()),
        UnK::AbsF => lanes(d, a, |x| f64::from_bits(x as u64).abs().to_bits() as i64),
        UnK::I2F => lanes(d, a, |x| ((x as f64).to_bits()) as i64),
    }
}

/// One-pass abstract interpreter that lowers bytecode to [`VOp`]s.
/// Returns `None` ("bail") on any shape outside the vectorizable class.
struct Vectorizer<'a> {
    program: &'a Program,
    plan: &'a MergePlan,
    vops: Vec<VOp>,
    n_regs: u16,
    pool_init: Vec<PoolEntry>,
    pool_ix: HashMap<i64, u16>,
    gsplat_ix: HashMap<u16, u16>,
    cur_mask: Mask,
    stack: Vec<Cell>,
    live: bool,
    pending: BTreeMap<u32, Vec<Edge>>,
    fuel_pending: u32,
}

impl<'a> Vectorizer<'a> {
    fn new(program: &'a Program, plan: &'a MergePlan) -> Self {
        Vectorizer {
            program,
            plan,
            vops: Vec::new(),
            n_regs: 0,
            pool_init: Vec::new(),
            pool_ix: HashMap::new(),
            gsplat_ix: HashMap::new(),
            cur_mask: None,
            stack: Vec::new(),
            live: true,
            pending: BTreeMap::new(),
            fuel_pending: 0,
        }
    }

    fn reg(&mut self) -> u16 {
        let r = self.n_regs;
        self.n_regs += 1;
        r
    }

    fn cpool(&mut self, bits: i64) -> Src {
        if let Some(&ix) = self.pool_ix.get(&bits) {
            return Src::Pool(ix);
        }
        let ix = self.pool_init.len() as u16;
        self.pool_init.push(PoolEntry::Const(bits));
        self.pool_ix.insert(bits, ix);
        Src::Pool(ix)
    }

    fn gpool(&mut self, slot: u16) -> Src {
        if let Some(&ix) = self.gsplat_ix.get(&slot) {
            return Src::Pool(ix);
        }
        let ix = self.pool_init.len() as u16;
        self.pool_init.push(PoolEntry::Global(slot));
        self.gsplat_ix.insert(slot, ix);
        Src::Pool(ix)
    }

    fn src(&mut self, pv: PV) -> Src {
        match pv {
            PV::C(bits) => self.cpool(bits),
            PV::S(s) => s,
        }
    }

    /// Emits a lane-wise binary op, constant-folding when both operands
    /// are known. Folding uses the scalar VM's exact semantics; a folded
    /// division by zero bails (the scalar path must trap instead).
    fn bin(&mut self, k: BinK, a: PV, b: PV) -> Option<PV> {
        if let (PV::C(x), PV::C(y)) = (a, b) {
            let mut d = [0i64];
            if matches!(k, BinK::DivI | BinK::ModI) && y == 0 {
                return None;
            }
            bin_kernel(k, &mut d, &[x], &[y]);
            return Some(PV::C(d[0]));
        }
        // Non-constant division can hit a zero lane the scalar path
        // would trap on; only constant nonzero divisors vectorize.
        if matches!(k, BinK::DivI | BinK::ModI) && !matches!(b, PV::C(c) if c != 0) {
            return None;
        }
        let (a, b) = (self.src(a), self.src(b));
        let dst = self.reg();
        self.vops.push(VOp::Bin { k, a, b, dst });
        Some(PV::S(Src::Reg(dst)))
    }

    fn un(&mut self, k: UnK, a: PV) -> PV {
        if let PV::C(x) = a {
            let mut d = [0i64];
            un_kernel(k, &mut d, &[x]);
            return PV::C(d[0]);
        }
        let a = self.src(a);
        let dst = self.reg();
        self.vops.push(VOp::Un { k, a, dst });
        PV::S(Src::Reg(dst))
    }

    fn pop(&mut self) -> Option<Cell> {
        self.stack.pop()
    }

    fn pop_pv(&mut self) -> Option<PV> {
        match self.pop()? {
            Cell::P(pv) => Some(pv),
            _ => None,
        }
    }

    fn push(&mut self, c: Cell) {
        self.stack.push(c);
    }

    /// Charges the ops accumulated since the last mask change.
    fn flush_fuel(&mut self) {
        if self.fuel_pending > 0 {
            let m = self.cur_mask;
            self.vops.push(VOp::Fuel {
                ops: self.fuel_pending,
                m,
            });
            self.fuel_pending = 0;
        }
    }

    /// A local is about to be overwritten: any live reference to its
    /// column (current stack, parked edges) still means the *old* value,
    /// so snapshot it into a register first. Masks never reference
    /// locals (conditions are copied to registers before becoming
    /// masks), so only cells need rewriting.
    fn protect_local(&mut self, local: u16) {
        let uses = |c: &Cell| {
            let pv_uses = |pv: &PV| matches!(pv, PV::S(Src::Local(l)) if *l == local);
            match c {
                Cell::P(pv) => pv_uses(pv),
                Cell::G(_) => false,
                Cell::A { d, .. } => pv_uses(d),
            }
        };
        let needed = self.stack.iter().any(uses)
            || self
                .pending
                .values()
                .flatten()
                .any(|e| e.stack.iter().any(uses));
        if !needed {
            return;
        }
        let dst = self.reg();
        self.vops.push(VOp::Copy {
            a: Src::Local(local),
            dst,
        });
        let r = PV::S(Src::Reg(dst));
        let fix = |pv: &mut PV| {
            if matches!(pv, PV::S(Src::Local(l)) if *l == local) {
                *pv = r;
            }
        };
        let fix_cell = |c: &mut Cell| match c {
            Cell::P(pv) => fix(pv),
            Cell::G(_) => {}
            Cell::A { d, .. } => fix(d),
        };
        for c in self.stack.iter_mut() {
            fix_cell(c);
        }
        for e in self.pending.values_mut().flatten() {
            for c in e.stack.iter_mut() {
                fix_cell(c);
            }
        }
    }

    /// A condition becoming part of mask algebra must not alias a
    /// mutable local column; snapshot it if it does.
    fn mask_safe(&mut self, s: Src) -> Src {
        if let Src::Local(_) = s {
            let dst = self.reg();
            self.vops.push(VOp::Copy { a: s, dst });
            Src::Reg(dst)
        } else {
            s
        }
    }

    fn or_mask(&mut self, a: Mask, b: Mask) -> Mask {
        match (a, b) {
            (None, _) | (_, None) => None,
            (Some(x), Some(y)) => {
                let dst = self.reg();
                self.vops.push(VOp::Bin {
                    k: BinK::OrB,
                    a: x,
                    b: y,
                    dst,
                });
                Some(Src::Reg(dst))
            }
        }
    }

    /// Merges every edge parked at `pc` into the live state. Rows arrive
    /// via exactly one incoming path, so blending per-edge is exact and
    /// merge order cannot matter.
    fn merge_at(&mut self, pc: u32) -> Option<()> {
        let Some(edges) = self.pending.remove(&pc) else {
            return Some(());
        };
        self.flush_fuel();
        for edge in edges {
            if !self.live {
                self.cur_mask = edge.mask;
                self.stack = edge.stack;
                self.live = true;
                continue;
            }
            if edge.stack.len() != self.stack.len() {
                return None;
            }
            for i in 0..self.stack.len() {
                let cur = self.stack[i].clone();
                let inc = edge.stack[i].clone();
                if cur == inc {
                    continue;
                }
                // Divergent values must be lane-pure to blend; the
                // incoming edge always carries a real mask (a fall-
                // through with all lanes leaves nothing to park).
                let (Cell::P(a), Cell::P(b)) = (cur, inc) else {
                    return None;
                };
                let m = edge.mask?;
                let (a, b) = (self.src(a), self.src(b));
                let dst = self.reg();
                self.vops.push(VOp::Blend { m, a, b, dst });
                self.stack[i] = Cell::P(PV::S(Src::Reg(dst)));
            }
            self.cur_mask = self.or_mask(self.cur_mask, edge.mask);
        }
        Some(())
    }

    fn park(&mut self, target: u32) {
        let edge = Edge {
            mask: self.cur_mask,
            stack: self.stack.clone(),
        };
        self.pending.entry(target).or_default().push(edge);
    }

    fn compile(mut self) -> Option<BatchEval> {
        let code = self.program.code.clone();
        for (pc, op) in code.iter().enumerate() {
            self.merge_at(pc as u32)?;
            if !self.live {
                continue;
            }
            self.fuel_pending += 1;
            match *op {
                Op::ConstI(v) => self.push(Cell::P(PV::C(v))),
                Op::ConstF(v) => self.push(Cell::P(PV::C(v.to_bits() as i64))),
                Op::LoadInput(i) => self.push(Cell::P(PV::S(Src::Input(i)))),
                Op::LoadLocal(i) => self.push(Cell::P(PV::S(Src::Local(i)))),
                Op::LoadGlobal(i) => match self.plan.slots.get(i as usize)?.class {
                    MergeClass::ReadOnly => {
                        let s = self.gpool(i);
                        self.push(Cell::P(PV::S(s)));
                    }
                    MergeClass::Counter | MergeClass::MinMax(_) | MergeClass::GatedWrite { .. } => {
                        self.push(Cell::G(i))
                    }
                    _ => return None,
                },
                Op::StoreLocal(i) => {
                    let Cell::P(pv) = self.pop()? else {
                        return None;
                    };
                    let a = self.src(pv);
                    if a == Src::Local(i) {
                        // `x = x` — identity under any mask.
                        continue;
                    }
                    self.protect_local(i);
                    let m = self.cur_mask;
                    self.vops.push(VOp::StoreLocal { local: i, a, m });
                }
                Op::StoreGlobal(s) => {
                    let cell = self.pop()?;
                    let class = &self.plan.slots.get(s as usize)?.class;
                    let m = self.cur_mask;
                    match cell {
                        // `g = g` — identity.
                        Cell::G(t) if t == s => {}
                        Cell::A { slot, k, d } if slot == s => {
                            let v = self.src(d);
                            match (k, class) {
                                (AccK::Add, MergeClass::Counter) => {
                                    self.vops.push(VOp::ReduceAdd {
                                        slot: s,
                                        delta: v,
                                        m,
                                    })
                                }
                                (AccK::Min, MergeClass::MinMax(MinMaxOp::Min)) => {
                                    self.vops.push(VOp::ReduceMin { slot: s, v, m })
                                }
                                (AccK::Max, MergeClass::MinMax(MinMaxOp::Max)) => {
                                    self.vops.push(VOp::ReduceMax { slot: s, v, m })
                                }
                                _ => return None,
                            }
                        }
                        Cell::P(PV::C(bits)) => match class {
                            MergeClass::GatedWrite { value_bits } if *value_bits == bits => {
                                self.vops.push(VOp::GatedStore { slot: s, bits, m })
                            }
                            _ => return None,
                        },
                        _ => return None,
                    }
                }
                Op::AddI | Op::SubI | Op::MinI | Op::MaxI => {
                    let r = self.pop()?;
                    let l = self.pop()?;
                    let cell = self.acc_or_bin(*op, l, r)?;
                    self.push(cell);
                }
                Op::MulI => {
                    let r = self.pop_pv()?;
                    let l = self.pop_pv()?;
                    let v = self.bin(BinK::MulI, l, r)?;
                    self.push(Cell::P(v));
                }
                Op::DivI | Op::ModI => {
                    let r = self.pop_pv()?;
                    let l = self.pop_pv()?;
                    let k = if matches!(*op, Op::DivI) {
                        BinK::DivI
                    } else {
                        BinK::ModI
                    };
                    let v = self.bin(k, l, r)?;
                    self.push(Cell::P(v));
                }
                Op::NegI => self.unop(UnK::NegI)?,
                Op::AddF => self.binop(BinK::AddF)?,
                Op::SubF => self.binop(BinK::SubF)?,
                Op::MulF => self.binop(BinK::MulF)?,
                Op::DivF => self.binop(BinK::DivF)?,
                Op::NegF => self.unop(UnK::NegF)?,
                Op::I2F => self.unop(UnK::I2F)?,
                Op::I2FUnder => {
                    let top = self.pop()?;
                    let under = self.pop_pv()?;
                    let conv = self.un(UnK::I2F, under);
                    self.push(Cell::P(conv));
                    self.push(top);
                }
                Op::EqI => self.binop(BinK::EqI)?,
                Op::NeI => self.binop(BinK::NeI)?,
                Op::LtI => self.binop(BinK::LtI)?,
                Op::LeI => self.binop(BinK::LeI)?,
                Op::GtI => self.binop(BinK::GtI)?,
                Op::GeI => self.binop(BinK::GeI)?,
                Op::EqF => self.binop(BinK::EqF)?,
                Op::NeF => self.binop(BinK::NeF)?,
                Op::LtF => self.binop(BinK::LtF)?,
                Op::LeF => self.binop(BinK::LeF)?,
                Op::GtF => self.binop(BinK::GtF)?,
                Op::GeF => self.binop(BinK::GeF)?,
                Op::NotB => self.unop(UnK::NotB)?,
                Op::AbsI => self.unop(UnK::AbsI)?,
                Op::AbsF => self.unop(UnK::AbsF)?,
                Op::MinF => self.binop(BinK::MinF)?,
                Op::MaxF => self.binop(BinK::MaxF)?,
                // `out()` streams are per-row observable side effects the
                // batch path does not reproduce — scalar fallback.
                Op::Out => return None,
                Op::Pop => {
                    self.pop()?;
                }
                Op::Jmp(t) => {
                    self.flush_fuel();
                    self.park(t);
                    self.stack.clear();
                    self.live = false;
                }
                Op::JmpIfFalse(t) => {
                    let cond = self.pop_pv()?;
                    self.flush_fuel();
                    match cond {
                        PV::C(c) => {
                            if c == 0 {
                                // Every live lane jumps.
                                self.park(t);
                                self.stack.clear();
                                self.live = false;
                            }
                            // Constant-true: straight fall-through.
                        }
                        PV::S(s) => {
                            let c = self.mask_safe(s);
                            let (m_then, m_else) = match self.cur_mask {
                                None => {
                                    let not = self.un(UnK::NotB, PV::S(c));
                                    (Some(c), Some(self.src(not)))
                                }
                                Some(m) => {
                                    let t_ = self.bin(BinK::AndB, PV::S(m), PV::S(c))?;
                                    let e_ = self.bin(BinK::AndNotB, PV::S(m), PV::S(c))?;
                                    (Some(self.src(t_)), Some(self.src(e_)))
                                }
                            };
                            self.cur_mask = m_else;
                            self.park(t);
                            self.cur_mask = m_then;
                        }
                    }
                }
                Op::Ret => {
                    // Return values are not observable through the batch
                    // API; discarding any cell (even a static read) has
                    // no side effect.
                    self.pop()?;
                    self.flush_fuel();
                    self.stack.clear();
                    self.live = false;
                }
                Op::RetVoid => {
                    self.flush_fuel();
                    self.stack.clear();
                    self.live = false;
                }
            }
        }
        // A parked edge past the end would mean the validator let a jump
        // escape the program — treat as non-vectorizable, not UB.
        if !self.pending.is_empty() || self.live {
            return None;
        }
        let n_pool = self.pool_init.len();
        let gsplats = self
            .pool_init
            .iter()
            .enumerate()
            .filter_map(|(ix, e)| match e {
                PoolEntry::Global(slot) => Some((ix as u16, *slot)),
                PoolEntry::Const(_) => None,
            })
            .collect();
        Some(BatchEval {
            vops: self.vops,
            n_inputs: self.program.inputs.len(),
            used_inputs: self
                .program
                .used_inputs()
                .iter()
                .enumerate()
                .filter(|(_, &u)| u)
                .map(|(i, _)| i as u16)
                .collect(),
            pool_init: self.pool_init,
            gsplats,
            regs: vec![Vec::new(); self.n_regs as usize],
            locals: vec![Vec::new(); self.program.n_locals as usize],
            pool: vec![Vec::new(); n_pool],
            width: 0,
        })
    }

    /// Lane-wise binary op on two popped pure values.
    fn binop(&mut self, k: BinK) -> Option<()> {
        let r = self.pop_pv()?;
        let l = self.pop_pv()?;
        let v = self.bin(k, l, r)?;
        self.push(Cell::P(v));
        Some(())
    }

    /// Lane-wise unary op on a popped pure value.
    fn unop(&mut self, k: UnK) -> Option<()> {
        let a = self.pop_pv()?;
        let v = self.un(k, a);
        self.push(Cell::P(v));
        Some(())
    }

    /// `AddI`/`SubI`/`MinI`/`MaxI` over cells that may carry an
    /// in-flight accumulation. Compositions mirror the fold algebra:
    /// `(g + a) + b ≡ g + (a + b)` (wrapping), `min(min(g,a),b) ≡
    /// min(g, min(a,b))`, so collapsing the operand side is exact.
    fn acc_or_bin(&mut self, op: Op, l: Cell, r: Cell) -> Option<Cell> {
        use AccK::*;
        let acc = |slot, k, d| Some(Cell::A { slot, k, d });
        match (op, l, r) {
            (Op::AddI, Cell::G(s), Cell::P(p)) | (Op::AddI, Cell::P(p), Cell::G(s)) => {
                acc(s, Add, p)
            }
            (Op::AddI, Cell::A { slot, k: Add, d }, Cell::P(p))
            | (Op::AddI, Cell::P(p), Cell::A { slot, k: Add, d }) => {
                let d = self.bin(BinK::AddI, d, p)?;
                acc(slot, Add, d)
            }
            (Op::SubI, Cell::G(s), Cell::P(p)) => {
                let d = self.un(UnK::NegI, p);
                acc(s, Add, d)
            }
            (Op::SubI, Cell::A { slot, k: Add, d }, Cell::P(p)) => {
                let d = self.bin(BinK::SubI, d, p)?;
                acc(slot, Add, d)
            }
            (Op::MinI, Cell::G(s), Cell::P(p)) | (Op::MinI, Cell::P(p), Cell::G(s)) => {
                acc(s, Min, p)
            }
            (Op::MinI, Cell::A { slot, k: Min, d }, Cell::P(p))
            | (Op::MinI, Cell::P(p), Cell::A { slot, k: Min, d }) => {
                let d = self.bin(BinK::MinI, d, p)?;
                acc(slot, Min, d)
            }
            (Op::MaxI, Cell::G(s), Cell::P(p)) | (Op::MaxI, Cell::P(p), Cell::G(s)) => {
                acc(s, Max, p)
            }
            (Op::MaxI, Cell::A { slot, k: Max, d }, Cell::P(p))
            | (Op::MaxI, Cell::P(p), Cell::A { slot, k: Max, d }) => {
                let d = self.bin(BinK::MaxI, d, p)?;
                acc(slot, Max, d)
            }
            (Op::AddI, Cell::P(l), Cell::P(r)) => Some(Cell::P(self.bin(BinK::AddI, l, r)?)),
            (Op::SubI, Cell::P(l), Cell::P(r)) => Some(Cell::P(self.bin(BinK::SubI, l, r)?)),
            (Op::MinI, Cell::P(l), Cell::P(r)) => Some(Cell::P(self.bin(BinK::MinI, l, r)?)),
            (Op::MaxI, Cell::P(l), Cell::P(r)) => Some(Cell::P(self.bin(BinK::MaxI, l, r)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{verify, VerifyLimits};
    use crate::{Instance, Type};

    const BUDGET: u64 = 10_000;

    fn compiled(src: &str, inputs: &[(&str, Type)]) -> (Program, MergePlan) {
        let v = verify(src, inputs, &VerifyLimits::default()).expect("verifies");
        let (program, report) = v.into_parts();
        (program, report.merge_plan)
    }

    /// Runs `rows` through both engines and asserts statics + fuel match
    /// bit-for-bit.
    fn differential(src: &str, inputs: &[(&str, Type)], rows: &[Vec<i64>]) {
        let (program, plan) = compiled(src, inputs);
        let mut be =
            BatchEval::try_compile(&program, &plan, BUDGET).expect("program should vectorize");

        let mut scalar = Instance::new(&program);
        let mut scalar_fuel = 0u64;
        for row in rows {
            let out = scalar.run_raw(row, BUDGET).expect("scalar run");
            scalar_fuel += out.fuel_used;
        }

        let mut vector = Instance::new(&program);
        let n = rows.len();
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(n); inputs.len()];
        for row in rows {
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(*v);
            }
        }
        let col_refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
        // Split into two uneven batches to cover batch-boundary reuse.
        let cut = n / 3;
        let head: Vec<&[i64]> = col_refs.iter().map(|c| &c[..cut]).collect();
        let tail: Vec<&[i64]> = col_refs.iter().map(|c| &c[cut..]).collect();
        let mut vector_fuel = be.run(&mut vector, &head, cut);
        vector_fuel += be.run(&mut vector, &tail, n - cut);

        assert_eq!(
            scalar.raw_globals(),
            vector.raw_globals(),
            "statics diverge"
        );
        assert_eq!(scalar_fuel, vector_fuel, "fuel diverges");
    }

    fn det_rows(n: usize, width: usize) -> Vec<Vec<i64>> {
        // Deterministic pseudo-random rows (splitmix64).
        let mut s = 0x9e37_79b9_97f4_a7c1_u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i64
        };
        (0..n)
            .map(|_| (0..width).map(|_| next().rem_euclid(1000)).collect())
            .collect()
    }

    #[test]
    fn counters_minmax_and_gates_match_scalar() {
        let src = r#"
            static int requests = 0;
            static int bytes = 0;
            static int worst = 0;
            static int best = 1000000;
            static int seen_big = 0;
            if (kind == 2 && status == 0) {
                requests = requests + 1;
                bytes = bytes + size;
                worst = max(worst, rtt);
                best = min(best, rtt);
                if (size > 600) { seen_big = 1; }
            }
            return requests;
        "#;
        let inputs = &[
            ("kind", Type::Int),
            ("status", Type::Int),
            ("size", Type::Int),
            ("rtt", Type::Int),
        ];
        let mut rows = det_rows(500, 4);
        for r in rows.iter_mut() {
            r[0] %= 4; // kind hits 2 often
            r[1] %= 2;
        }
        differential(src, inputs, &rows);
    }

    #[test]
    fn locals_branches_and_arithmetic_match_scalar() {
        let src = r#"
            static int total = 0;
            static int spikes = 0;
            int d = end - start;
            if (d < 0) { d = 0 - d; }
            int weighted = d * 3 + size / 8;
            if (weighted > 500 || kind == 7) {
                spikes = spikes + 1;
            }
            total = total + weighted % 97;
            return total;
        "#;
        let inputs = &[
            ("start", Type::Int),
            ("end", Type::Int),
            ("size", Type::Int),
            ("kind", Type::Int),
        ];
        let mut rows = det_rows(333, 4);
        for r in rows.iter_mut() {
            r[3] %= 9;
        }
        differential(src, inputs, &rows);
    }

    #[test]
    fn short_circuit_joins_match_scalar() {
        let src = r#"
            static int hits = 0;
            if (a > 10 && b > 20 || c == 0) {
                hits = hits + a + b;
            }
            return hits;
        "#;
        let inputs = &[("a", Type::Int), ("b", Type::Int), ("c", Type::Int)];
        let mut rows = det_rows(257, 3);
        for r in rows.iter_mut() {
            r[0] %= 30;
            r[1] %= 40;
            r[2] %= 3;
        }
        differential(src, inputs, &rows);
    }

    #[test]
    fn out_and_nonconst_division_bail_to_scalar() {
        let (p, plan) = compiled(
            "static int n = 0; n = n + 1; out(0, 1.0); return n;",
            &[("x", Type::Int)],
        );
        assert!(BatchEval::try_compile(&p, &plan, BUDGET).is_none(), "out()");

        let (p, plan) = compiled(
            "static int n = 0; n = n + a / b; return n;",
            &[("a", Type::Int), ("b", Type::Int)],
        );
        assert!(
            BatchEval::try_compile(&p, &plan, BUDGET).is_none(),
            "non-constant divisor"
        );
    }

    #[test]
    fn tiny_fuel_budget_bails_instead_of_aborting_mid_batch() {
        let (p, plan) = compiled(
            "static int n = 0; n = n + 1; return n;",
            &[("x", Type::Int)],
        );
        assert!(BatchEval::try_compile(&p, &plan, 2).is_none());
        assert!(BatchEval::try_compile(&p, &plan, BUDGET).is_some());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (p, plan) = compiled(
            "static int n = 0; n = n + 1; return n;",
            &[("x", Type::Int)],
        );
        let mut be = BatchEval::try_compile(&p, &plan, BUDGET).unwrap();
        let mut inst = Instance::new(&p);
        let empty: &[i64] = &[];
        assert_eq!(be.run(&mut inst, &[empty], 0), 0);
        assert_eq!(inst.raw_globals(), Instance::new(&p).raw_globals());
    }

    #[test]
    fn float_lane_math_matches_scalar_bitwise() {
        let src = r#"
            static int slow = 0;
            double us = dur * 0.001;
            if (us > 1.5) { slow = slow + 1; }
            return slow;
        "#;
        let rows = det_rows(200, 1);
        differential(src, &[("dur", Type::Int)], &rows);
    }
}
