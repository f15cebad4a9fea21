//! The correlation engine: cached FFT plans, precomputed correlation
//! templates, and an overlap-save streaming correlator with reusable
//! scratch buffers.
//!
//! Packet detection and SIC are correlation-bound: the gateway runs
//! one universal-preamble correlation over every capture block, and
//! the cloud runs correlation-heavy classification and kill filters on
//! every shipped segment. Before this module existed, each of those
//! calls re-planned an FFT (recomputing twiddles and bit-reversal
//! tables) and re-synthesized its template from scratch. The engine
//! memoizes both:
//!
//! * [`plan`] — a process-wide, thread-safe cache of [`Fft`] plans by
//!   size. Plans are immutable after construction (`&self` methods
//!   only), so a single `Arc<Fft>` per size is shared by every thread,
//!   including the cloud worker pool.
//! * [`Template`] — a correlation template with its forward FFT
//!   precomputed at a fixed engine block size, correlated against
//!   arbitrary-length signals by overlap-save with per-thread scratch
//!   buffers (zero steady-state allocation beyond the output).
//! * [`NccWalk`] — a template's normalized correlation walked one block
//!   at a time, so a caller can stop once the lags so far answer it.
//! * [`TemplateBank`] — an indexed set of templates, built once per
//!   registry-and-sample-rate pair by the PHY layer.
//! * [`FsCache`] — a tiny sample-rate-keyed memo used by callers that
//!   receive `fs` at call time rather than construction time.
//!
//! Hit/miss counters ([`stats`]) make the caching observable; the core
//! crate surfaces them in its `Metrics`.

use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fft::{next_pow2, Fft};
use crate::num::Cf32;

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

static PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<Fft>>>> = OnceLock::new();
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);
static BANK_BUILDS: AtomicU64 = AtomicU64::new(0);
static BANK_HITS: AtomicU64 = AtomicU64::new(0);

/// Returns the shared FFT plan of size `n`, planning it on first use.
///
/// Subsequent calls for the same size — from any thread — return the
/// same `Arc`, so twiddle and bit-reversal tables are computed once per
/// process rather than once per correlation.
///
/// # Panics
/// Panics if `n` is zero or not a power of two (same contract as
/// [`Fft::new`]).
pub fn plan(n: usize) -> Arc<Fft> {
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = cache.lock().expect("plan cache poisoned");
        if let Some(p) = map.get(&n) {
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            return p.clone();
        }
    }
    // Plan outside the lock: planning a large FFT is exactly the cost
    // this cache exists to hide, and other sizes should not wait on it.
    let fresh = Arc::new(Fft::new(n));
    let mut map = cache.lock().expect("plan cache poisoned");
    match map.entry(n) {
        // Lost a planning race: the caller is served the cached plan
        // after all, which is what a hit means.
        Entry::Occupied(winner) => {
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            winner.get().clone()
        }
        Entry::Vacant(slot) => {
            PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
            slot.insert(fresh).clone()
        }
    }
}

/// A snapshot of the engine's cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan-cache lookups served an existing plan (the loser of a
    /// planning race included).
    pub plan_hits: u64,
    /// Plans inserted into the cache.
    pub plan_misses: u64,
    /// Template banks synthesized from scratch.
    pub bank_builds: u64,
    /// Template-bank lookups served from a cache.
    pub bank_hits: u64,
}

impl EngineStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// attributing cache activity to one pipeline run.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            plan_hits: self.plan_hits.saturating_sub(earlier.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(earlier.plan_misses),
            bank_builds: self.bank_builds.saturating_sub(earlier.bank_builds),
            bank_hits: self.bank_hits.saturating_sub(earlier.bank_hits),
        }
    }
}

/// Snapshots the process-wide cache counters.
pub fn stats() -> EngineStats {
    EngineStats {
        plan_hits: PLAN_HITS.load(Ordering::Relaxed),
        plan_misses: PLAN_MISSES.load(Ordering::Relaxed),
        bank_builds: BANK_BUILDS.load(Ordering::Relaxed),
        bank_hits: BANK_HITS.load(Ordering::Relaxed),
    }
}

/// Records one template-bank build (called by bank caches).
pub fn note_bank_build() {
    BANK_BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Records one template-bank cache hit (called by bank caches).
pub fn note_bank_hit() {
    BANK_HITS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Reusable per-thread work buffers for one overlap-save block, shared
/// by every correlation and every [`NccWalk`] on the thread: nothing in
/// them outlives the block. Each is sized by the template's FFT block,
/// never by the signal.
#[derive(Default)]
struct Scratch {
    /// FFT work block (signal block in, correlation block out).
    block: Vec<Cf32>,
    /// Per-sample `|z|^2` staging for the prefix-sum pass.
    sq: Vec<f32>,
}

/// What an [`NccWalk`] carries from one block to the next, kept by a
/// caller from one walk to the next (the engine keeps one per thread for
/// [`Template::xcorr_normalized_into`]). Sized by the template's block,
/// never by the signal — unless the walk parks lags, which it does only
/// on a signal with no noise floor.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Prefix sums under the sliding-window energies in flight.
    prefix: Vec<f64>,
    /// The walk's normalized lags from the first one not handed out on.
    pending: Vec<f32>,
    /// `(lag, window energy)` of the lags normalized on credit.
    parked: Vec<(usize, f64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    static WALK: RefCell<WalkScratch> = RefCell::new(WalkScratch::default());
}

// ---------------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------------

/// A correlation template with a precomputed conjugated spectrum.
///
/// Correlating against a `Template` runs overlap-save at the
/// template's block size: the template's forward FFT is computed once
/// at construction, and each correlation call only transforms signal
/// blocks (two cached-plan FFTs per block, no allocation beyond the
/// output vector).
#[derive(Clone, Debug)]
pub struct Template {
    waveform: Vec<Cf32>,
    /// `sum |h|^2` — reused by normalized correlation.
    energy: f32,
    /// Overlap-save FFT size (power of two, `>= waveform.len()`).
    fft_len: usize,
    /// `conj(FFT(h zero-padded to fft_len))`.
    spectrum_conj: Vec<Cf32>,
}

/// Picks the engine's default overlap-save block for a template of
/// `m` samples: small enough that short captures don't pay for a
/// giant transform, large enough that the per-block overlap (`m - 1`
/// wasted samples) stays a minor fraction.
fn default_block(m: usize) -> usize {
    next_pow2(4 * m.max(1)).max(256)
}

impl Template {
    /// Builds a template with the engine's default block size.
    pub fn new(h: &[Cf32]) -> Self {
        Self::with_block(h, default_block(h.len()))
    }

    /// Builds a template with an explicit overlap-save FFT size.
    ///
    /// # Panics
    /// Panics if `fft_len` is not a power of two at least as large as
    /// the template (unless the template is empty).
    pub fn with_block(h: &[Cf32], fft_len: usize) -> Self {
        if h.is_empty() {
            return Template {
                waveform: Vec::new(),
                energy: 0.0,
                fft_len: 1,
                spectrum_conj: Vec::new(),
            };
        }
        assert!(
            fft_len.is_power_of_two() && fft_len >= h.len(),
            "block size {fft_len} invalid for template of {} samples",
            h.len()
        );
        let mut spectrum = vec![Cf32::ZERO; fft_len];
        spectrum[..h.len()].copy_from_slice(h);
        plan(fft_len).forward(&mut spectrum);
        for z in spectrum.iter_mut() {
            *z = z.conj();
        }
        Template {
            waveform: h.to_vec(),
            energy: h.iter().map(|z| z.norm_sqr()).sum(),
            fft_len,
            spectrum_conj: spectrum,
        }
    }

    /// The template waveform.
    pub fn waveform(&self) -> &[Cf32] {
        &self.waveform
    }

    /// Template length in samples.
    pub fn len(&self) -> usize {
        self.waveform.len()
    }

    /// Whether the template is empty.
    pub fn is_empty(&self) -> bool {
        self.waveform.is_empty()
    }

    /// Template energy `sum |h|^2`.
    pub fn energy(&self) -> f32 {
        self.energy
    }

    /// Lags one overlap-save block scores (`fft_len - len + 1`): a signal
    /// `block_lags() + len() - 1` samples long is one transform.
    pub fn block_lags(&self) -> usize {
        self.fft_len + 1 - self.waveform.len()
    }

    /// Sliding cross-correlation of `x` against this template
    /// (identical semantics to [`crate::corr::xcorr_fft`]): overlap-save
    /// with the cached plan, writing into `out`.
    pub fn xcorr_into(&self, x: &[Cf32], out: &mut Vec<Cf32>) {
        let lags = self.lags(x);
        out.clear();
        out.reserve_exact(lags);
        SCRATCH.with(|s| {
            let block = &mut s.borrow_mut().block;
            let plan = plan(self.fft_len);
            while out.len() < lags {
                let run = self.correlate_block(x, out.len(), block, &plan);
                out.extend_from_slice(&block[..run]);
            }
        });
    }

    /// [`Template::xcorr_into`], returning a fresh vector.
    pub fn xcorr(&self, x: &[Cf32]) -> Vec<Cf32> {
        let mut out = Vec::new();
        self.xcorr_into(x, &mut out);
        out
    }

    /// Number of lags at which the template fits inside `x`.
    fn lags(&self, x: &[Cf32]) -> usize {
        let m = self.waveform.len();
        if m == 0 || x.len() < m {
            0
        } else {
            x.len() - m + 1
        }
    }

    /// One overlap-save block: leaves the correlation at lags `pos..`
    /// in `block[..run]` and returns `run`, at most
    /// [`Template::block_lags`] (fewer only at the end of `x`).
    fn correlate_block(&self, x: &[Cf32], pos: usize, block: &mut Vec<Cf32>, plan: &Fft) -> usize {
        let n = self.fft_len;
        block.resize(n, Cf32::ZERO);
        let take = (x.len() - pos).min(n);
        block[..take].copy_from_slice(&x[pos..pos + take]);
        block[take..].fill(Cf32::ZERO);
        plan.forward(block);
        // Correlation theorem: corr = IFFT(FFT(x) * conj(FFT(h))).
        // Pointwise spectral multiply on the SIMD backend — bit-exact
        // across backends, so detection output is too.
        crate::kernels::mul_in_place(block, &self.spectrum_conj);
        plan.inverse(block);
        // Outputs 0..step of a block are full-overlap correlations;
        // later ones wrap circularly and belong to the next block.
        self.block_lags().min(self.lags(x) - pos)
    }

    /// Normalized sliding correlation magnitude in `[0, 1]` (identical
    /// semantics to [`crate::corr::xcorr_normalized`]), using the
    /// precomputed template energy and per-thread scratch: an
    /// [`NccWalk`] run to the end.
    pub fn xcorr_normalized(&self, x: &[Cf32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.xcorr_normalized_into(x, &mut out);
        out
    }

    /// [`Template::xcorr_normalized`] into a caller-held buffer — a
    /// gateway session's or a decode worker's, reused from one window
    /// to the next. Whatever `out` held is discarded; it comes back
    /// with one score per lag.
    ///
    /// A live gateway scores each block of new lags this way, from the
    /// block's own samples: the trace of `x[k..]` is the whole-signal
    /// trace from lag `k` on to FFT rounding (its overlap-save blocks
    /// start at `k`, so not bit for bit), with the quiet-window floor
    /// taken over the lags it computes.
    pub fn xcorr_normalized_into(&self, x: &[Cf32], out: &mut Vec<f32>) {
        out.clear();
        // Grown to the lags exactly, never doubled past them.
        out.reserve_exact(self.lags(x));
        WALK.with(|s| {
            // The walk keeps its lags in `out`, and keeps all of them.
            let scratch = &mut *s.borrow_mut();
            std::mem::swap(&mut scratch.pending, out);
            let mut walk = self.walk(x, scratch);
            while walk.advance() {}
            std::mem::swap(&mut scratch.pending, out);
        });
    }

    /// Starts an [`NccWalk`] of `x` in `scratch` (whatever it held is
    /// never read).
    pub fn walk<'a>(&'a self, x: &'a [Cf32], scratch: &'a mut WalkScratch) -> NccWalk<'a> {
        let WalkScratch {
            prefix,
            pending,
            parked,
        } = scratch;
        pending.clear();
        parked.clear();
        // No window can outweigh `m` samples at the signal's peak power,
        // plus what f64 prefix sums over `n` samples can round to.
        let (m, n) = (self.len() as f64, x.len() as f64);
        let peak = crate::kernels::max_norm_sqr(x) as f64;
        NccWalk {
            template: self,
            plan: None,
            energies: WindowEnergies::new(x, self.len(), prefix),
            pending,
            parked,
            ceiling: (peak * (m + n * n * f64::EPSILON) * 2e-9).max(QUIET_FLOOR),
            loudest: 0.0,
            walked: 0,
            settled: 0,
            origin: 0,
        }
    }
}

/// Normalized correlation of one signal against one [`Template`], walked
/// one overlap-save block at a time from lag 0, so a caller can stop as
/// soon as the lags it has seen answer its question.
///
/// Every lag is the one [`Template::xcorr_normalized`] gives over the
/// whole signal, bit for bit. Windows quieter than `1e-9` of the loudest
/// one are numerical residue, not signal, and score zero — a floor only
/// known once every window has been seen. No window can outweigh `m`
/// samples at the signal's peak power, which bounds the floor from above
/// before the walk starts, and the loudest window so far bounds it from
/// below. A lag under the lower bound is zero, one over the upper bound
/// is final as it comes out of the inverse FFT, and the few in between
/// (none on a signal with a noise floor) are *parked*: normalized on
/// credit, zeroed if a louder window later raises the floor over them,
/// and held back — with every lag after them — until the floor can no
/// longer reach them, at the latest at the end of the signal.
pub struct NccWalk<'a> {
    template: &'a Template,
    /// The template's FFT plan, looked up on the first block.
    plan: Option<Arc<Fft>>,
    energies: WindowEnergies<'a>,
    /// Lags `origin..walked`, normalized.
    pending: &'a mut Vec<f32>,
    /// Parked lags, ascending.
    parked: &'a mut Vec<(usize, f64)>,
    /// Upper bound on the quiet-window floor.
    ceiling: f64,
    /// The loudest window so far.
    loudest: f64,
    /// Lags correlated so far.
    walked: usize,
    /// Lags handed out so far.
    settled: usize,
    /// The lag `pending` starts at.
    origin: usize,
}

impl NccWalk<'_> {
    /// Lags of the whole trace.
    pub fn lags(&self) -> usize {
        self.template.lags(self.energies.x)
    }

    /// Lags correlated so far.
    pub fn walked(&self) -> usize {
        self.walked
    }

    /// Lags handed out so far: every one is final.
    pub fn settled(&self) -> usize {
        self.settled
    }

    /// The signal samples the next block reads, from the first: while
    /// the signal is the head of a longer one and holds more than this,
    /// the block's lags are the longer signal's (on a signal with a noise
    /// floor, where no lag is parked).
    pub fn reads_to(&self) -> usize {
        self.walked + self.template.fft_len
    }

    /// Correlates the next overlap-save block and returns the lags that
    /// became final with it, in order from the last run's end — all of
    /// the block's unless a lag is parked, and with the last block every
    /// lag still held back. `None` once the walk has handed out every
    /// lag.
    pub fn next_run(&mut self) -> Option<&[f32]> {
        self.pending.drain(..self.settled - self.origin);
        self.origin = self.settled;
        self.advance()
            .then(|| &self.pending[..self.settled - self.origin])
    }

    /// Correlates and normalizes the next block into `pending` and
    /// settles what it can; `false` once every block is done.
    fn advance(&mut self) -> bool {
        let lags = self.lags();
        if self.walked == lags {
            return false;
        }
        let (t, walked) = (self.template, self.walked);
        let plan = self.plan.get_or_insert_with(|| plan(t.fft_len));
        let (energies, pending, loudest) =
            (&mut self.energies, &mut *self.pending, &mut self.loudest);
        let (run, quietest, floor) = SCRATCH.with(|s| {
            let Scratch { block, sq } = &mut *s.borrow_mut();
            let run = t.correlate_block(energies.x, walked, block, plan);
            energies.load(run, sq);
            let (quietest, most) = energies.extremes();
            *loudest = loudest.max(most);
            let floor = (*loudest * 1e-9).max(QUIET_FLOOR);
            let at = pending.len();
            pending.resize(at + run, 0.0);
            crate::kernels::normalize_lags(
                &block[..run],
                energies.prefix,
                t.len(),
                t.energy as f64,
                floor,
                &mut pending[at..],
            );
            (run, quietest, floor)
        });
        if quietest <= self.ceiling {
            let (energies, ceiling) = (&self.energies, self.ceiling);
            self.parked.extend(
                (0..run)
                    .map(|k| (walked + k, energies.win(k)))
                    .filter(|&(_, win)| win > floor && win <= ceiling),
            );
        }
        self.walked += run;
        // The floor may have risen over lags parked before; past the
        // last window it can rise no more.
        let (pending, origin, end) = (&mut *self.pending, self.origin, self.walked == lags);
        self.parked.retain(|&(lag, win)| {
            if win <= floor {
                pending[lag - origin] = 0.0;
            }
            win > floor && !end
        });
        self.settled = self.parked.first().map_or(self.walked, |&(lag, _)| lag);
        true
    }
}

/// The least quiet-window floor of normalized correlation: window
/// energies at or under this score zero whatever the rest of the signal
/// holds.
const QUIET_FLOOR: f64 = 1e-30;

/// The sliding-window energies `sum |x[i..i + m]|^2` of a signal, read
/// a run of consecutive lags at a time.
///
/// Each energy is a difference of two f64 prefix sums accumulated
/// sample by sample from `x[0]` (f64 to avoid drift) — the values a
/// whole-signal prefix table would hold — but only the `m + run`
/// entries under the run in flight are kept, so the working set follows
/// the template, not the capture.
struct WindowEnergies<'a> {
    x: &'a [Cf32],
    m: usize,
    /// `prefix[k]` is the energy of `x[..first + k]`; `count + m`
    /// entries, so window `k` of the run is `prefix[k + m] - prefix[k]`.
    prefix: &'a mut Vec<f64>,
    /// Lag of the window `win(0)` describes.
    first: usize,
    /// Windows in the current run.
    count: usize,
}

impl<'a> WindowEnergies<'a> {
    fn new(x: &'a [Cf32], m: usize, prefix: &'a mut Vec<f64>) -> Self {
        prefix.clear();
        prefix.push(0.0);
        WindowEnergies {
            x,
            m,
            prefix,
            first: 0,
            count: 0,
        }
    }

    /// Moves on to the next `count` windows: drops the sums behind the
    /// previous run and extends them to cover this one, the new samples'
    /// `|z|^2` staged in `sq` (squared on the SIMD backend, bit-exact,
    /// then summed sequentially).
    fn load(&mut self, count: usize, sq: &mut Vec<f32>) {
        self.prefix.drain(..self.count);
        self.first += self.count;
        self.count = count;
        let have = self.first + self.prefix.len() - 1;
        let need = self.first + count - 1 + self.m;
        sq.resize(need - have, 0.0);
        crate::kernels::norm_sqr_into(&self.x[have..need], sq);
        let mut acc = self.prefix[self.prefix.len() - 1];
        self.prefix.extend(sq.iter().map(|&v| {
            acc += v as f64;
            acc
        }));
    }

    /// Energy of window `k` of the current run.
    fn win(&self, k: usize) -> f64 {
        self.prefix[k + self.m] - self.prefix[k]
    }

    /// The least and greatest window energy of the current run (NaN
    /// energies skipped).
    fn extremes(&self) -> (f64, f64) {
        let (lo, hi) = (&self.prefix[..self.count], &self.prefix[self.m..]);
        lo.iter()
            .zip(hi)
            .map(|(a, b)| b - a)
            .fold((f64::INFINITY, 0.0f64), |(min, max), win| {
                (min.min(win), max.max(win))
            })
    }
}

/// One-shot cached-plan correlation for callers without a persistent
/// [`Template`] (the engine-backed implementation of
/// [`crate::corr::xcorr_fft`]).
///
/// The template spectrum is still computed per call (there is nothing
/// to memoize it against), but the FFT plans come from the cache and
/// the signal side runs overlap-save, so long captures use a few small
/// transforms instead of one enormous freshly-planned one.
pub fn xcorr_cached(x: &[Cf32], h: &[Cf32]) -> Vec<Cf32> {
    let mut out = Vec::new();
    xcorr_cached_into(x, h, &mut out);
    out
}

/// [`xcorr_cached`] into a caller-held buffer: whatever `out` held is
/// discarded, and it comes back with one correlation per lag.
pub(crate) fn xcorr_cached_into(x: &[Cf32], h: &[Cf32], out: &mut Vec<Cf32>) {
    out.clear();
    if h.is_empty() || x.len() < h.len() {
        return;
    }
    // For short signals a single block the size of the whole problem
    // beats overlap-save's per-block overhead.
    let single = next_pow2(x.len() + h.len());
    let block = default_block(h.len()).min(single);
    Template::with_block(h, block).xcorr_into(x, out);
}

// ---------------------------------------------------------------------------
// Template banks
// ---------------------------------------------------------------------------

/// An indexed set of [`Template`]s sharing one sample rate.
///
/// The PHY registry builds one bank per `(registry, fs)` pair — every
/// technology's preamble synthesized and FFT'd exactly once — and the
/// gateway detectors, edge decoder and cloud classifier all correlate
/// through it. Entries are in the caller's insertion order with a
/// caller-chosen `u32` key (the technology id).
#[derive(Clone, Debug)]
pub struct TemplateBank {
    fs: f64,
    keys: Vec<u32>,
    templates: Vec<Template>,
}

impl TemplateBank {
    /// Builds a bank from `(key, waveform)` pairs at sample rate `fs`.
    pub fn build(fs: f64, items: impl IntoIterator<Item = (u32, Vec<Cf32>)>) -> Self {
        let mut keys = Vec::new();
        let mut templates = Vec::new();
        for (key, wf) in items {
            keys.push(key);
            templates.push(Template::new(&wf));
        }
        TemplateBank {
            fs,
            keys,
            templates,
        }
    }

    /// The sample rate the bank's waveforms were synthesized for.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The caller-assigned key of entry `i`.
    pub fn key(&self, i: usize) -> u32 {
        self.keys[i]
    }

    /// The template at index `i`.
    pub fn template(&self, i: usize) -> &Template {
        &self.templates[i]
    }

    /// The waveform of entry `i`.
    pub fn waveform(&self, i: usize) -> &[Cf32] {
        self.templates[i].waveform()
    }
}

// ---------------------------------------------------------------------------
// Sample-rate-keyed cache
// ---------------------------------------------------------------------------

/// A tiny thread-safe memo keyed by sample rate.
///
/// Detectors receive `fs` per call rather than at construction, so
/// they cannot precompute at build time; an `FsCache` lets them build
/// once per distinct rate (deployments use one, tests a handful).
/// Clones share the underlying cache — a registry cloned into the
/// gateway, edge and cloud components therefore builds its template
/// bank once for all three.
#[derive(Debug)]
pub struct FsCache<T>(Arc<Mutex<FsEntries<T>>>);

/// The entries of an [`FsCache`]: `(fs.to_bits(), value)` pairs.
type FsEntries<T> = Vec<(u64, Arc<T>)>;

impl<T> Clone for FsCache<T> {
    fn clone(&self) -> Self {
        FsCache(self.0.clone())
    }
}

impl<T> Default for FsCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FsCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        FsCache(Arc::new(Mutex::new(Vec::new())))
    }

    /// Returns the cached value for `fs`, building it with `make` on
    /// first use. Records bank hit/build counters.
    pub fn get_or(&self, fs: f64, make: impl FnOnce() -> T) -> Arc<T> {
        let key = fs.to_bits();
        {
            let slots = self.0.lock().expect("fs cache poisoned");
            if let Some((_, v)) = slots.iter().find(|(k, _)| *k == key) {
                note_bank_hit();
                return v.clone();
            }
        }
        // Build outside the lock; racing builders agree on the result
        // (construction is deterministic), first insert wins.
        note_bank_build();
        let fresh = Arc::new(make());
        let mut slots = self.0.lock().expect("fs cache poisoned");
        if let Some((_, v)) = slots.iter().find(|(k, _)| *k == key) {
            return v.clone();
        }
        slots.push((key, fresh.clone()));
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corr::xcorr_direct;

    fn wave(n: usize, f: f32) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::cis(i as f32 * f)).collect()
    }

    #[test]
    fn plans_are_shared_and_counted() {
        let before = stats();
        let a = plan(1 << 14);
        let b = plan(1 << 14);
        assert!(Arc::ptr_eq(&a, &b));
        // Both lookups are counted, and the repeat is a hit. (The
        // counters are process-wide: concurrent tests only add to
        // them.)
        let after = stats().since(&before);
        assert!(after.plan_hits >= 1, "{after:?}");
        assert!(after.plan_hits + after.plan_misses >= 2, "{after:?}");
    }

    #[test]
    fn template_xcorr_matches_direct() {
        let x = wave(1000, 0.7);
        let h = wave(37, 1.3);
        let t = Template::new(&h);
        let a = xcorr_direct(&x, &h);
        let b = t.xcorr(&x);
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 2e-3, "{p:?} vs {q:?}");
        }
    }

    #[test]
    fn overlap_save_spans_many_blocks() {
        // Force several overlap-save blocks: template 33, block 256.
        let x = wave(5_000, 0.31);
        let h = wave(33, 0.9);
        let t = Template::with_block(&h, 256);
        let a = xcorr_direct(&x, &h);
        let b = t.xcorr(&x);
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b.iter()) {
            assert!((*p - *q).abs() < 2e-3);
        }
    }

    #[test]
    fn template_normalized_finds_embedded_copy() {
        let h = wave(64, 0.37);
        let mut x = vec![Cf32::ZERO; 700];
        for (k, &v) in h.iter().enumerate() {
            x[300 + k] = v * 2.0;
        }
        let t = Template::new(&h);
        let ncc = t.xcorr_normalized(&x);
        let (idx, val) = ncc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .unwrap();
        assert_eq!(idx, 300);
        assert!(val > 0.999);
    }

    #[test]
    fn streamed_normalization_equals_a_whole_signal_prefix_table() {
        // The specification: every lag's window energy read off one
        // prefix-sum table over the whole signal. Several blocks, a
        // ragged last one, a silent stretch under the floor.
        let h = wave(33, 0.9);
        let t = Template::with_block(&h, 256);
        for len in [33, 34, 256, 257, 1_000, 5_000] {
            let mut x = wave(len, 0.31);
            for z in x.iter_mut().skip(400).take(300) {
                *z = Cf32::ZERO;
            }
            let m = h.len();
            let raw = t.xcorr(&x);
            let mut prefix = vec![0.0f64];
            for z in &x {
                prefix.push(prefix[prefix.len() - 1] + z.norm_sqr() as f64);
            }
            let win = |i: usize| prefix[i + m] - prefix[i];
            let max_win = (0..raw.len()).map(win).fold(0.0f64, f64::max);
            let floor = (max_win * 1e-9).max(1e-30);
            let want: Vec<f32> = (0..raw.len())
                .map(|i| {
                    if win(i) <= floor {
                        0.0
                    } else {
                        let denom = (win(i) * t.energy() as f64).sqrt() as f32;
                        (raw[i].abs() / denom).min(1.0)
                    }
                })
                .collect();
            let got = t.xcorr_normalized(&x);
            assert_eq!(got.len(), want.len(), "len {len}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "len {len} lag {i}");
            }
        }
    }

    /// `corr::xcorr_normalized` — whole-signal prefix table, the floor
    /// found in a pass of its own — is the specification; it correlates
    /// at this block size, and equal blocks make equal raw correlations.
    fn assert_matches_two_pass(x: &[Cf32], h: &[Cf32], what: &str) {
        let block = default_block(h.len()).min(next_pow2(x.len() + h.len()));
        let want = crate::corr::xcorr_normalized(x, h);
        let got = Template::with_block(h, block).xcorr_normalized(x);
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: lag {i} of {}",
                want.len()
            );
        }
    }

    #[test]
    fn one_walk_normalization_equals_the_two_pass_one() {
        let h = wave(33, 0.9); // 256-sample blocks, 224 lags each
        let scaled = |len: usize, k: f32| wave(len, 0.31).into_iter().map(move |z| z * k);
        // Several blocks and a ragged tail.
        for len in [33, 34, 256, 257, 1_000, 5_000] {
            assert_matches_two_pass(&wave(len, 0.31), &h, &format!("plain {len}"));
        }
        assert_matches_two_pass(&vec![Cf32::ZERO; 2_000], &h, "all zero");
        let mut silent = wave(3_000, 0.31);
        silent[700..1_900].fill(Cf32::ZERO);
        assert_matches_two_pass(&silent, &h, "silent stretch");
        // The loudest window comes last: every earlier window is under
        // the floor, which a walk that trusted the floor so far would
        // miss. And first, and in the middle.
        let quiet_then_loud: Vec<Cf32> = scaled(2_000, 1e-6).chain(scaled(100, 1.0)).collect();
        assert_matches_two_pass(&quiet_then_loud, &h, "loudest last");
        assert!(
            Template::new(&h).xcorr_normalized(&quiet_then_loud)[..1_900]
                .iter()
                .all(|&v| v == 0.0)
        );
        let loud_then_quiet: Vec<Cf32> = scaled(100, 1.0).chain(scaled(2_000, 1e-6)).collect();
        assert_matches_two_pass(&loud_then_quiet, &h, "loudest first");
        let ramp: Vec<Cf32> = (0..8)
            .flat_map(|step| scaled(300, 10f32.powi(step - 7)))
            .chain(scaled(300, 1e-3))
            .collect();
        assert_matches_two_pass(&ramp, &h, "ramp up and back down");
        // Windows within a factor of two over the floor (the slack in
        // the up-front bound).
        let near: Vec<Cf32> = scaled(1_000, 3.5e-5).chain(scaled(1_000, 1.0)).collect();
        assert_matches_two_pass(&near, &h, "just over the floor");
        // Samples no bound can be trusted on.
        let mut poisoned = quiet_then_loud.clone();
        poisoned[1_000] = Cf32::new(f32::NAN, 0.0);
        poisoned[400] = Cf32::new(3.0, f32::INFINITY);
        assert_matches_two_pass(&poisoned, &h, "NaN and inf");
        // A NaN one vector stride after the peak shares its lane in a
        // vector `max_norm_sqr`, and the first block's quiet lags are
        // long final when the peak's window shows up: were the NaN to
        // wipe the peak, the bound would come out under the true floor.
        let mut hidden: Vec<Cf32> = scaled(2_000, 1e-6).collect();
        hidden[1_000] = Cf32::new(1e3, 0.0);
        hidden[1_004] = Cf32::new(f32::NAN, 0.0);
        assert_matches_two_pass(&hidden, &h, "peak hidden behind a NaN");
    }

    /// Walks `x` for `blocks` blocks (in a scratch another walk left
    /// dirty), checks what it handed out against the whole-signal trace
    /// and its settled point against the floor's bounds, then walks on
    /// to the end.
    fn check_stopped_walk(t: &Template, x: &[Cf32], blocks: usize) {
        let whole = t.xcorr_normalized(x);
        let mut scratch = WalkScratch::default();
        let mut dirty = t.walk(&x[x.len() / 3..], &mut scratch);
        while dirty.next_run().is_some() {}
        let mut walk = t.walk(x, &mut scratch);
        let mut got = Vec::new();
        for _ in 0..blocks {
            match walk.next_run() {
                Some(run) => got.extend_from_slice(run),
                None => break,
            }
        }
        let (walked, settled) = (walk.walked(), walk.settled());
        assert_eq!(walked, (blocks * t.block_lags()).min(whole.len()));
        assert_eq!(got.len(), settled);
        assert_eq!(bits(&got), bits(&whole[..settled]), "{blocks} blocks");
        // Settled up to the first lag walked whose window lies over the
        // floor so far but at most the bound on the floor a later window
        // can raise — or all of them, once there are no later windows.
        let m = t.len();
        let mut prefix = vec![0.0f64];
        for z in x {
            prefix.push(prefix[prefix.len() - 1] + z.norm_sqr() as f64);
        }
        let win = |i: usize| prefix[i + m] - prefix[i];
        // The whole-signal trace is the specification: the raw correlation
        // normalized by every lag's window, zero at or under the floor
        // over all of them.
        let floor_of = |lags: usize| ((0..lags).map(win).fold(0.0f64, f64::max) * 1e-9).max(1e-30);
        let (raw, last) = (t.xcorr(x), floor_of(whole.len()));
        let spec: Vec<f32> = (0..raw.len())
            .map(|i| match win(i) {
                w if w <= last => 0.0,
                w => (raw[i].abs() / (w * t.energy() as f64).sqrt() as f32).min(1.0),
            })
            .collect();
        assert_eq!(bits(&whole), bits(&spec), "the whole trace");
        let floor = floor_of(walked);
        let peak = x.iter().map(|z| z.norm_sqr()).fold(0.0f32, f32::max) as f64;
        let n = x.len() as f64;
        let ceiling = (peak * (m as f64 + n * n * f64::EPSILON) * 2e-9).max(1e-30);
        let exposed = (0..walked).find(|&i| win(i) > floor && win(i) <= ceiling);
        let want = if walked == whole.len() {
            walked
        } else {
            exposed.unwrap_or(walked)
        };
        assert_eq!(settled, want, "{blocks} blocks of {walked} lags");
        while let Some(run) = walk.next_run() {
            got.extend_from_slice(run);
        }
        assert_eq!(bits(&got), bits(&whole), "walked on from {blocks} blocks");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn a_stopped_walk_is_the_whole_trace_so_far() {
        let h = wave(33, 0.9); // 256-sample blocks, 224 lags each
        let t = Template::new(&h);
        let scaled = |len: usize, k: f32| wave(len, 0.31).into_iter().map(move |z| z * k);
        let mut quiet_then_loud: Vec<Cf32> = scaled(2_000, 1e-6).chain(scaled(100, 1.0)).collect();
        let mut silent = wave(3_000, 0.31);
        silent[700..1_900].fill(Cf32::ZERO);
        for blocks in 0..12 {
            check_stopped_walk(&t, &wave(2_000, 0.31), blocks);
            check_stopped_walk(&t, &silent, blocks);
            check_stopped_walk(&t, &vec![Cf32::ZERO; 1_000], blocks);
            check_stopped_walk(&t, &wave(100, 0.31), blocks);
            check_stopped_walk(&t, &wave(20, 0.31), blocks);
            // The burst comes in with the ninth block: every lag before
            // it is parked until then.
            check_stopped_walk(&t, &quiet_then_loud, blocks);
        }
        let mut scratch = WalkScratch::default();
        let mut walk = t.walk(&quiet_then_loud, &mut scratch);
        assert_eq!(walk.next_run(), Some(&[][..]));
        quiet_then_loud[1_000] = Cf32::new(f32::NAN, 0.0);
        for blocks in 0..12 {
            check_stopped_walk(&t, &quiet_then_loud, blocks);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_one_walk_normalization_equals_the_two_pass_one(
            m in 1usize..70,
            // Runs of a length and a decade each: loud, quiet and dead
            // stretches in any order.
            lens in proptest::collection::vec(1usize..600, 1..6),
            decades in proptest::collection::vec(0i32..9, 6),
            phase in 0.0f32..1.0,
        ) {
            let h = wave(m, 0.4 + phase);
            let mut x = Vec::new();
            for (len, decade) in lens.into_iter().zip(decades) {
                let k = if decade == 8 { 0.0 } else { 10f32.powi(-decade) };
                x.extend(wave(len, phase).into_iter().map(|z| z * k));
            }
            assert_matches_two_pass(&x, &h, "random runs");
        }

        #[test]
        fn prop_a_stopped_walk_is_the_whole_trace_so_far(
            m in 1usize..70,
            lens in proptest::collection::vec(1usize..600, 1..6),
            decades in proptest::collection::vec(0i32..9, 6),
            phase in 0.0f32..1.0,
            blocks in 0usize..14,
            // A loud burst this far past the last sample the stopped walk
            // read, and a NaN sample anywhere (each half the time).
            burst in 0usize..800,
            nan_at in 0usize..6_000,
        ) {
            let t = Template::new(&wave(m, 0.4 + phase));
            let mut x = Vec::new();
            for (len, decade) in lens.into_iter().zip(decades) {
                let k = if decade == 8 { 0.0 } else { 10f32.powi(-decade) };
                x.extend(wave(len, phase).into_iter().map(|z| z * k));
            }
            if burst < 400 {
                let at = (blocks * t.block_lags() + m - 1 + burst).min(x.len());
                let loud: Vec<Cf32> = wave(50, phase).into_iter().map(|z| z * 1e3).collect();
                x.splice(at..at, loud);
            }
            if nan_at < 3_000 && !x.is_empty() {
                let at = nan_at % x.len();
                x[at] = Cf32::new(f32::NAN, 0.0);
            }
            check_stopped_walk(&t, &x, blocks);
        }

        #[test]
        fn prop_normalized_into_ignores_what_the_buffer_held(
            m in 1usize..70,
            len in 0usize..1_500,
            // A reused buffer: shorter than, as long as or longer than
            // the trace, and full of stale scores.
            held in 0usize..3_000,
            phase in 0.0f32..1.0,
        ) {
            let t = Template::new(&wave(m, 0.4 + phase));
            let x = wave(len, phase);
            let mut out = vec![f32::NAN; held];
            t.xcorr_normalized_into(&x, &mut out);
            let want = t.xcorr_normalized(&x);
            proptest::prop_assert_eq!(out.len(), want.len());
            for (g, w) in out.iter().zip(&want) {
                proptest::prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            // And again over a different signal, into what this one left.
            let y = wave(len / 2 + m, phase + 0.2);
            t.xcorr_normalized_into(&y, &mut out);
            let want = t.xcorr_normalized(&y);
            proptest::prop_assert_eq!(out.len(), want.len());
            for (g, w) in out.iter().zip(&want) {
                proptest::prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn degenerate_templates_are_safe() {
        let t = Template::new(&[]);
        assert!(t.is_empty());
        assert!(t.xcorr(&wave(10, 0.5)).is_empty());
        assert!(t.xcorr_normalized(&wave(10, 0.5)).is_empty());
        // Signal shorter than template.
        let t = Template::new(&wave(8, 0.5));
        assert!(t.xcorr(&wave(4, 0.5)).is_empty());
        // Signal exactly template-length: one output, the dot product.
        let h = wave(16, 0.23);
        let one = Template::new(&h).xcorr(&h);
        assert_eq!(one.len(), 1);
        assert!((one[0].abs() - 16.0).abs() < 1e-2);
    }

    #[test]
    fn bank_preserves_order_and_keys() {
        let bank = TemplateBank::build(1e6, vec![(7u32, wave(10, 0.1)), (9u32, wave(20, 0.2))]);
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.key(0), 7);
        assert_eq!(bank.key(1), 9);
        assert_eq!(bank.waveform(1).len(), 20);
        assert_eq!(bank.fs(), 1e6);
    }

    #[test]
    fn fs_cache_builds_once_per_rate() {
        let cache: FsCache<usize> = FsCache::new();
        let mut builds = 0usize;
        for &fs in &[1e6, 1e6, 2e6, 1e6] {
            let _ = cache.get_or(fs, || {
                builds += 1;
                builds
            });
        }
        assert_eq!(builds, 2, "one build per distinct rate");
        // Clones share the cache.
        let clone = cache.clone();
        let v = clone.get_or(1e6, || unreachable!("must be cached"));
        assert_eq!(*v, 1);
    }
}
