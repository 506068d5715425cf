//! Fast 3D calorimeter detector simulator.
//!
//! The paper couples Sherpa "to a fast 3D detector simulator that we
//! configure to use 20x35x35 voxels" (§5.4). This module reproduces that
//! substrate: each visible particle deposits energy into a depth×height×width
//! voxel grid as a 3D Gaussian shower whose longitudinal position and widths
//! depend on the particle species (EM showers early and narrow, hadronic
//! showers deep and wide, muons as minimum-ionizing tracks).
//!
//! The deposition weights are evaluated through the *scalar* 3D
//! multivariate-normal implementation of `etalumis-distributions` — the
//! exact code path whose generic-vs-scalar comparison gave the paper its
//! 13× PDF / 1.5× pipeline speedup (§4.2). The `pdf3d` bench regenerates
//! that comparison on this workload.

use etalumis_distributions::mvn::{mvn3_diag_log_pdf, MvnGeneric};
use etalumis_distributions::TensorValue;

use crate::channels::ParticleKind;

/// Detector geometry and response configuration.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Number of depth layers (beam axis). Paper: 20.
    pub depth: usize,
    /// Transverse cells (height). Paper: 35.
    pub height: usize,
    /// Transverse cells (width). Paper: 35.
    pub width: usize,
    /// Cells per unit of angular offset (projection scale).
    pub cells_per_rad: f64,
    /// Calorimeter sampling fraction (deposited / true energy).
    pub sampling_fraction: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self { depth: 20, height: 35, width: 35, cells_per_rad: 120.0, sampling_fraction: 0.9 }
    }
}

/// Shower shape parameters per species: (depth mean, depth var, transverse var).
fn shower_shape(kind: ParticleKind) -> (f64, f64, f64) {
    match kind {
        ParticleKind::Electron | ParticleKind::Gamma | ParticleKind::Pi0 => (4.0, 4.0, 0.8),
        ParticleKind::PiCharged => (10.0, 16.0, 2.6),
        ParticleKind::KCharged => (11.0, 18.0, 2.9),
        ParticleKind::K0 => (12.0, 20.0, 3.2),
        ParticleKind::Muon => (10.0, 60.0, 0.35),
        ParticleKind::Neutrino => (0.0, 1.0, 1.0),
    }
}

/// Response factor per species (muons deposit only a MIP-like fraction,
/// neutral kaons partially, neutrinos nothing).
fn response(kind: ParticleKind) -> f64 {
    match kind {
        ParticleKind::Muon => 0.08,
        ParticleKind::K0 => 0.6,
        ParticleKind::Neutrino => 0.0,
        _ => 1.0,
    }
}

/// A visible particle entering the calorimeter.
#[derive(Clone, Copy, Debug)]
pub struct IncomingParticle {
    /// Species.
    pub kind: ParticleKind,
    /// Energy in GeV.
    pub energy: f64,
    /// Angular offset from the reference axis, height direction (rad).
    pub dy: f64,
    /// Angular offset from the reference axis, width direction (rad).
    pub dx: f64,
}

/// The detector: deposits particles into a voxel grid.
#[derive(Clone)]
pub struct Detector {
    /// Geometry/response configuration.
    pub config: DetectorConfig,
}

impl Detector {
    /// New detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// Voxel grid shape `[depth, height, width]`.
    pub fn shape(&self) -> Vec<usize> {
        vec![self.config.depth, self.config.height, self.config.width]
    }

    /// Simulate the calorimeter response to a set of particles.
    pub fn simulate(&self, particles: &[IncomingParticle]) -> TensorValue {
        let mut grid = TensorValue::zeros(self.shape());
        for p in particles {
            self.deposit(&mut grid, p, false);
        }
        grid
    }

    /// Same as [`Detector::simulate`] but evaluating shower weights through
    /// the generic (Cholesky-per-call) MVN path — the pre-optimization code
    /// from the paper, kept for the 13×/1.5× ablation benchmarks.
    pub fn simulate_generic_pdf(&self, particles: &[IncomingParticle]) -> TensorValue {
        let mut grid = TensorValue::zeros(self.shape());
        for p in particles {
            self.deposit(&mut grid, p, true);
        }
        grid
    }

    fn deposit(&self, grid: &mut TensorValue, p: &IncomingParticle, generic_pdf: bool) {
        let resp = response(p.kind);
        if resp == 0.0 || p.energy <= 0.0 {
            return;
        }
        let (dmean, dvar, tvar) = shower_shape(p.kind);
        let c = &self.config;
        let cy = (c.height as f64 - 1.0) / 2.0 + p.dy * c.cells_per_rad;
        let cx = (c.width as f64 - 1.0) / 2.0 + p.dx * c.cells_per_rad;
        let mean = [dmean, cy, cx];
        let var = [dvar, tvar, tvar];
        // Window: ±3σ around the shower center, clipped to the grid.
        let win = |m: f64, v: f64, n: usize| {
            let s = v.sqrt();
            let lo = ((m - 3.0 * s).floor().max(0.0)) as usize;
            let hi = ((m + 3.0 * s).ceil().min((n - 1) as f64)) as usize;
            (lo, hi)
        };
        let (d0, d1) = win(dmean, dvar, c.depth);
        let (y0, y1) = win(cy, tvar, c.height);
        let (x0, x1) = win(cx, tvar, c.width);
        if d0 > d1 || y0 > y1 || x0 > x1 {
            return;
        }
        // The generic path rebuilds a dense covariance and factorizes per
        // voxel (as the xtensor implementation effectively did); the scalar
        // path uses the closed-form diagonal 3D pdf.
        let generic = MvnGeneric::new(
            mean.to_vec(),
            vec![var[0], 0.0, 0.0, 0.0, var[1], 0.0, 0.0, 0.0, var[2]],
        );
        // First pass: collect weights and their sum inside the window so the
        // deposited energy is exactly resp * sampling_fraction * E.
        let mut weights = Vec::with_capacity((d1 - d0 + 1) * (y1 - y0 + 1) * (x1 - x0 + 1));
        let mut total = 0.0f64;
        for d in d0..=d1 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let pt = [d as f64, y as f64, x as f64];
                    let lp = if generic_pdf {
                        generic.log_pdf(&pt)
                    } else {
                        mvn3_diag_log_pdf(&pt, &mean, &var)
                    };
                    let w = lp.exp();
                    weights.push(w);
                    total += w;
                }
            }
        }
        if total <= 0.0 {
            return;
        }
        let scale = resp * c.sampling_fraction * p.energy / total;
        let mut wi = 0;
        for d in d0..=d1 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let idx = (d * c.height + y) * c.width + x;
                    grid.data[idx] += (weights[wi] * scale) as f32;
                    wi += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_pion(energy: f64) -> IncomingParticle {
        IncomingParticle { kind: ParticleKind::PiCharged, energy, dy: 0.0, dx: 0.0 }
    }

    #[test]
    fn energy_is_conserved_up_to_response() {
        let det = Detector::new(DetectorConfig::default());
        let grid = det.simulate(&[one_pion(20.0)]);
        let total: f64 = grid.data.iter().map(|&x| x as f64).sum();
        let expect = 20.0 * det.config.sampling_fraction;
        assert!((total - expect).abs() < 1e-3, "{total} vs {expect}");
    }

    #[test]
    fn neutrinos_deposit_nothing() {
        let det = Detector::new(DetectorConfig::default());
        let grid = det.simulate(&[IncomingParticle {
            kind: ParticleKind::Neutrino,
            energy: 30.0,
            dy: 0.0,
            dx: 0.0,
        }]);
        assert_eq!(grid.data.iter().map(|&x| x as f64).sum::<f64>(), 0.0);
    }

    #[test]
    fn em_showers_peak_earlier_than_hadronic() {
        let det = Detector::new(DetectorConfig::default());
        let em = det.simulate(&[IncomingParticle {
            kind: ParticleKind::Electron,
            energy: 10.0,
            dy: 0.0,
            dx: 0.0,
        }]);
        let had = det.simulate(&[one_pion(10.0)]);
        let depth_mean = |g: &TensorValue| {
            let c = DetectorConfig::default();
            let mut num = 0.0;
            let mut den = 0.0;
            for d in 0..c.depth {
                let layer: f64 = (0..c.height * c.width)
                    .map(|i| g.data[d * c.height * c.width + i] as f64)
                    .sum();
                num += d as f64 * layer;
                den += layer;
            }
            num / den
        };
        assert!(depth_mean(&em) + 2.0 < depth_mean(&had));
    }

    #[test]
    fn angular_offset_moves_the_shower() {
        let det = Detector::new(DetectorConfig::default());
        let center = det.simulate(&[one_pion(10.0)]);
        let off = det.simulate(&[IncomingParticle {
            kind: ParticleKind::PiCharged,
            energy: 10.0,
            dy: 0.05,
            dx: -0.05,
        }]);
        let cfg = DetectorConfig::default();
        let centroid = |g: &TensorValue| {
            let (mut ys, mut xs, mut den) = (0.0, 0.0, 0.0);
            for d in 0..cfg.depth {
                for y in 0..cfg.height {
                    for x in 0..cfg.width {
                        let v = g.data[(d * cfg.height + y) * cfg.width + x] as f64;
                        ys += y as f64 * v;
                        xs += x as f64 * v;
                        den += v;
                    }
                }
            }
            (ys / den, xs / den)
        };
        let (cy0, cx0) = centroid(&center);
        let (cy1, cx1) = centroid(&off);
        assert!(cy1 > cy0 + 3.0, "dy=0.05 should move shower up: {cy0} -> {cy1}");
        assert!(cx1 < cx0 - 3.0, "dx=-0.05 should move shower left: {cx0} -> {cx1}");
    }

    #[test]
    fn generic_and_scalar_pdf_paths_agree() {
        let det = Detector::new(DetectorConfig::default());
        let ps = [
            one_pion(12.0),
            IncomingParticle { kind: ParticleKind::Electron, energy: 6.0, dy: 0.02, dx: 0.01 },
            IncomingParticle { kind: ParticleKind::Muon, energy: 8.0, dy: -0.03, dx: 0.0 },
        ];
        let a = det.simulate(&ps);
        let b = det.simulate_generic_pdf(&ps);
        for (x, y) in a.data.iter().zip(b.data.iter()) {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }
}
