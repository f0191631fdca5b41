//! ReRAM energy model reproducing Tables V and VI of the paper.
//!
//! The paper models five 22 nm ReRAM cell designs (CellA…CellE) whose
//! normal set/reset energy spans 0.1–1.6 pJ/cell, assumes a 3× slow write
//! dissipates 0.767× the power of a normal write (hence 2.3× the energy),
//! and uses nvsim for the peripheral circuitry. We invert the published
//! Table VI rows to recover the peripheral constants — 197.6 pJ per normal
//! line write, 196.7 pJ per slow line write (the slow write's peripheral
//! energy is marginally lower because it drives 0.95 V instead of 1.00 V),
//! and 1503 pJ per row-buffer fill — which lets this module regenerate the
//! table exactly and extrapolate to arbitrary cells.

/// Bits written per memory line write (64-byte cache line).
pub const LINE_BITS: u64 = 512;

/// The five cell designs of Table V, named by their normal set/reset
/// energy per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// 0.1 pJ per cell set/reset.
    A,
    /// 0.2 pJ per cell set/reset.
    B,
    /// 0.4 pJ per cell set/reset. The paper's Fig. 16 uses this cell.
    C,
    /// 0.8 pJ per cell set/reset.
    D,
    /// 1.6 pJ per cell set/reset.
    E,
}

impl CellKind {
    /// All five cells, in Table V order.
    pub const ALL: [CellKind; 5] = [
        CellKind::A,
        CellKind::B,
        CellKind::C,
        CellKind::D,
        CellKind::E,
    ];

    /// Returns the normal-write set/reset energy per cell, in picojoules.
    pub fn cell_energy_pj(self) -> f64 {
        match self {
            CellKind::A => 0.1,
            CellKind::B => 0.2,
            CellKind::C => 0.4,
            CellKind::D => 0.8,
            CellKind::E => 1.6,
        }
    }

    /// Returns the cell's Table V/VI label.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::A => "CellA",
            CellKind::B => "CellB",
            CellKind::C => "CellC",
            CellKind::D => "CellD",
            CellKind::E => "CellE",
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-operation energy model of the resistive main memory (Table VI).
///
/// # Examples
///
/// ```
/// use mellow_nvm::energy::{CellKind, EnergyModel};
///
/// let m = EnergyModel::for_cell(CellKind::C);
/// // Table VI, CellC row: 402.4 pJ normal write, 667.8 pJ slow write.
/// assert!((m.normal_write_pj() - 402.4).abs() < 0.05);
/// assert!((m.slow_write_pj() - 667.8).abs() < 0.05);
/// assert!((m.slow_norm_ratio() - 1.66).abs() < 0.005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Normal set/reset energy per cell, pJ.
    cell_energy_pj: f64,
    /// Slow-write per-cell energy multiplier (0.767× power × 3× time).
    slow_cell_energy_ratio: f64,
    /// Peripheral energy per normal line write, pJ.
    periph_normal_pj: f64,
    /// Peripheral energy per slow line write, pJ (0.95 V supply).
    periph_slow_pj: f64,
    /// Row-buffer fill (array read at row granularity), pJ.
    buffer_read_pj: f64,
    /// Row-buffer-hit read, pJ (Fig. 16's assumption).
    rb_hit_read_pj: f64,
}

impl EnergyModel {
    /// Creates the model for one of Table V's cells with the paper's
    /// peripheral constants.
    pub fn for_cell(cell: CellKind) -> Self {
        Self::with_cell_energy(cell.cell_energy_pj())
    }

    /// Creates the model for an arbitrary normal set/reset energy per
    /// cell, in picojoules.
    ///
    /// # Panics
    ///
    /// Panics if `cell_energy_pj` is not positive and finite.
    pub fn with_cell_energy(cell_energy_pj: f64) -> Self {
        assert!(
            cell_energy_pj.is_finite() && cell_energy_pj > 0.0,
            "cell energy must be positive, got {cell_energy_pj}"
        );
        EnergyModel {
            cell_energy_pj,
            slow_cell_energy_ratio: 2.3,
            periph_normal_pj: 197.6,
            periph_slow_pj: 196.74,
            buffer_read_pj: 1503.0,
            rb_hit_read_pj: 100.0,
        }
    }

    /// The configuration used for the paper's Fig. 16: CellC.
    pub fn fig16_default() -> Self {
        Self::for_cell(CellKind::C)
    }

    /// Energy of one normal line write (64 B, half set / half reset), pJ.
    pub fn normal_write_pj(&self) -> f64 {
        self.periph_normal_pj + LINE_BITS as f64 * self.cell_energy_pj
    }

    /// Energy of one 3× slow line write, pJ.
    pub fn slow_write_pj(&self) -> f64 {
        self.periph_slow_pj + LINE_BITS as f64 * self.cell_energy_pj * self.slow_cell_energy_ratio
    }

    /// Energy of filling the row buffer from the array (a row-miss read),
    /// pJ.
    pub fn buffer_read_pj(&self) -> f64 {
        self.buffer_read_pj
    }

    /// Energy of a row-buffer-hit read, pJ.
    pub fn rb_hit_read_pj(&self) -> f64 {
        self.rb_hit_read_pj
    }

    /// The slow/normal write energy ratio (Table VI's last column).
    pub fn slow_norm_ratio(&self) -> f64 {
        self.slow_write_pj() / self.normal_write_pj()
    }

    /// Regenerates a Table VI row: `(buffer read, normal write, slow
    /// write, slow/normal ratio)`, all in pJ.
    pub fn table_vi_row(&self) -> (f64, f64, f64, f64) {
        (
            self.buffer_read_pj(),
            self.normal_write_pj(),
            self.slow_write_pj(),
            self.slow_norm_ratio(),
        )
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::fig16_default()
    }
}

/// Tallies of energy-bearing memory operations, convertible to joules
/// under an [`EnergyModel`] (drives Fig. 16).
///
/// Cancelled write attempts charge energy for the fraction of the pulse
/// actually driven.
///
/// # Examples
///
/// ```
/// use mellow_nvm::energy::{EnergyAccount, EnergyModel};
///
/// let mut acct = EnergyAccount::default();
/// acct.add_rb_hit_read();
/// acct.add_normal_write();
/// let m = EnergyModel::fig16_default();
/// assert!((acct.total_pj(&m) - (100.0 + 402.4)).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyAccount {
    /// Row-buffer-hit reads.
    pub rb_hit_reads: u64,
    /// Row-buffer fills (row-miss reads).
    pub buffer_reads: u64,
    /// Completed normal line writes.
    pub normal_writes: u64,
    /// Completed slow line writes.
    pub slow_writes: u64,
    /// Fractional normal-write equivalents from cancelled normal attempts.
    pub cancelled_normal_equiv: f64,
    /// Fractional slow-write equivalents from cancelled slow attempts.
    pub cancelled_slow_equiv: f64,
}

mellow_engine::impl_json_fields!(EnergyAccount {
    rb_hit_reads,
    buffer_reads,
    normal_writes,
    slow_writes,
    cancelled_normal_equiv,
    cancelled_slow_equiv,
});

impl EnergyAccount {
    /// Records a row-buffer-hit read.
    pub fn add_rb_hit_read(&mut self) {
        self.rb_hit_reads += 1;
    }

    /// Records a row-buffer fill (row-miss read).
    pub fn add_buffer_read(&mut self) {
        self.buffer_reads += 1;
    }

    /// Records a completed normal write.
    pub fn add_normal_write(&mut self) {
        self.normal_writes += 1;
    }

    /// Records a completed slow write.
    pub fn add_slow_write(&mut self) {
        self.slow_writes += 1;
    }

    /// Records a cancelled write attempt that drove `fraction` of its
    /// pulse; `slow` selects which per-write energy it consumed.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn add_cancelled(&mut self, slow: bool, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "completed fraction must be in [0, 1], got {fraction}"
        );
        if slow {
            self.cancelled_slow_equiv += fraction;
        } else {
            self.cancelled_normal_equiv += fraction;
        }
    }

    /// Returns the total energy in picojoules under `model`.
    pub fn total_pj(&self, model: &EnergyModel) -> f64 {
        self.rb_hit_reads as f64 * model.rb_hit_read_pj()
            + self.buffer_reads as f64 * model.buffer_read_pj()
            + (self.normal_writes as f64 + self.cancelled_normal_equiv) * model.normal_write_pj()
            + (self.slow_writes as f64 + self.cancelled_slow_equiv) * model.slow_write_pj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table VI as printed in the paper.
    const TABLE_VI: [(CellKind, f64, f64, f64, f64); 5] = [
        (CellKind::A, 1503.0, 248.8, 314.5, 1.26),
        (CellKind::B, 1503.0, 300.0, 432.3, 1.44),
        (CellKind::C, 1503.0, 402.4, 667.8, 1.66),
        (CellKind::D, 1503.0, 607.2, 1138.8, 1.88),
        (CellKind::E, 1503.0, 1016.8, 2080.9, 2.05),
    ];

    #[test]
    fn reproduces_table_vi() {
        for (cell, buf, norm, slow, ratio) in TABLE_VI {
            let m = EnergyModel::for_cell(cell);
            let (b, n, s, r) = m.table_vi_row();
            assert!((b - buf).abs() < 0.05, "{cell} buffer read");
            assert!((n - norm).abs() < 0.05, "{cell} normal write: {n}");
            assert!((s - slow).abs() < 0.05, "{cell} slow write: {s}");
            assert!((r - ratio).abs() < 0.005, "{cell} ratio: {r}");
        }
    }

    #[test]
    fn ratio_shrinks_with_cheaper_cells() {
        // Table VI's observation: peripheral energy dominates for small
        // cells, so the slow/normal gap narrows.
        let mut prev = f64::INFINITY;
        for cell in CellKind::ALL {
            let r = EnergyModel::for_cell(cell).slow_norm_ratio();
            assert!(r < 2.31, "ratio bounded by the cell-level 2.3x");
            assert!(r > 1.0);
            // Larger cells have larger ratios -> iterate A..E ascending.
            assert!(r > 0.0 && (prev == f64::INFINITY || r > prev) || cell == CellKind::A);
            prev = r;
        }
    }

    #[test]
    fn account_totals() {
        let m = EnergyModel::for_cell(CellKind::E);
        let mut a = EnergyAccount::default();
        a.add_buffer_read();
        a.add_rb_hit_read();
        a.add_rb_hit_read();
        a.add_normal_write();
        a.add_slow_write();
        a.add_cancelled(false, 0.5);
        let expect = 1503.0 + 200.0 + 1016.8 + 2080.9 + 0.5 * 1016.8;
        assert!((a.total_pj(&m) - expect).abs() < 0.1);
    }

    #[test]
    fn cell_names_and_display() {
        assert_eq!(CellKind::C.to_string(), "CellC");
        assert_eq!(CellKind::ALL.len(), 5);
    }

    #[test]
    fn custom_cell_energy_interpolates() {
        // A hypothetical 0.3 pJ cell sits between CellB and CellC.
        let m = EnergyModel::with_cell_energy(0.3);
        let b = EnergyModel::for_cell(CellKind::B).normal_write_pj();
        let c = EnergyModel::for_cell(CellKind::C).normal_write_pj();
        let x = m.normal_write_pj();
        assert!(b < x && x < c);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_cell_energy_rejected() {
        let _ = EnergyModel::with_cell_energy(0.0);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn cancelled_fraction_validated() {
        EnergyAccount::default().add_cancelled(false, 2.0);
    }
}
