//! Seeded workload inputs and their measured properties. The program
//! only ever sees what these functions write: a CSV file or the same
//! CSV lines over TCP.

use astro_stream_pca::core::PcaConfig;
use astro_stream_pca::linalg::Mat;
use astro_stream_pca::spectra::contaminants::{self, ContaminantKind};
use astro_stream_pca::spectra::io;
use astro_stream_pca::spectra::normalize::unit_norm_masked;
use astro_stream_pca::spectra::synthetic::PlantedSubspace;
use astro_stream_pca::spectra::GalaxyGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Rows as the program parses them: values (0.0 in gaps) and a mask.
pub struct Rows {
    pub rows: Vec<(Vec<f64>, Vec<bool>)>,
    /// Which rows are contaminants (quasar, star or sky spectra).
    pub outlier: Vec<bool>,
}

impl Rows {
    pub fn dim(&self) -> usize {
        self.rows[0].0.len()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Writes the rows as CSV (`nan` in gaps) with the program's own
    /// writer, and returns the measured input properties.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<InputProps> {
        let masked: Vec<(Vec<f64>, Vec<bool>)> = self
            .rows
            .iter()
            .map(|(v, m)| {
                let v = v
                    .iter()
                    .zip(m)
                    .map(|(&x, &ok)| if ok { x } else { f64::NAN })
                    .collect();
                (v, m.clone())
            })
            .collect();
        io::write_csv_masked(path, &masked)?;
        Ok(self.props(std::fs::metadata(path)?.len()))
    }

    fn props(&self, bytes: u64) -> InputProps {
        let n = self.len() as f64;
        let gaps: usize = self
            .rows
            .iter()
            .map(|(_, m)| m.iter().filter(|&&ok| !ok).count())
            .sum();
        InputProps {
            rows: self.len(),
            dim: self.dim(),
            masked_row_share: self
                .rows
                .iter()
                .filter(|(_, m)| m.iter().any(|&ok| !ok))
                .count() as f64
                / n,
            outlier_share: self.outlier.iter().filter(|&&o| o).count() as f64 / n,
            mean_gap_fraction: gaps as f64 / (n * self.dim() as f64),
            bytes_per_row: bytes as f64 / n,
        }
    }
}

/// Properties of a workload's input that a later "helps only inputs with
/// property X" claim can cite.
#[derive(Debug, Clone, Copy)]
pub struct InputProps {
    pub rows: usize,
    pub dim: usize,
    pub masked_row_share: f64,
    pub outlier_share: f64,
    pub mean_gap_fraction: f64,
    pub bytes_per_row: f64,
}

impl InputProps {
    pub fn line(&self) -> String {
        format!(
            "input: rows = {}, d = {}, masked_row_share = {:.4}, outlier_share = {:.4}, \
             mean_gap_fraction = {:.4}, bytes_per_row = {:.1}",
            self.rows,
            self.dim,
            self.masked_row_share,
            self.outlier_share,
            self.mean_gap_fraction,
            self.bytes_per_row
        )
    }
}

/// SDSS-like spectra as `spca generate` makes them: redshift-dependent
/// coverage gaps, unit-normalised, a `contamination` share of quasar,
/// star and sky contaminants.
pub fn spectra(seed: u64, n: usize, pixels: usize, contamination: f64) -> Rows {
    let gen = GalaxyGenerator::new(pixels, 0.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut outlier = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen::<f64>() < contamination {
            let kind = match rng.gen_range(0..3) {
                0 => ContaminantKind::Quasar,
                1 => ContaminantKind::Star,
                _ => ContaminantKind::Sky,
            };
            let mut flux = contaminants::draw(&mut rng, gen.grid(), kind);
            let mask = vec![true; pixels];
            unit_norm_masked(&mut flux, &mask);
            rows.push((flux, mask));
            outlier.push(true);
        } else {
            let mut s = gen.sample_with_coverage(&mut rng);
            unit_norm_masked(&mut s.flux, &s.mask);
            for (v, &ok) in s.flux.iter_mut().zip(&s.mask) {
                if !ok {
                    *v = 0.0;
                }
            }
            rows.push((s.flux, s.mask));
            outlier.push(false);
        }
    }
    Rows { rows, outlier }
}

/// Rank of the planted signal subspace (the engines track this many
/// components).
pub const PLANTED_RANK: usize = 4;
const PLANTED_NOISE: f64 = 0.1;

/// Gap-free rows around a planted `PLANTED_RANK`-dimensional subspace,
/// and the planted basis.
pub fn planted(seed: u64, n: usize, dim: usize) -> (Rows, Mat) {
    let w = PlantedSubspace::new(dim, PLANTED_RANK, PLANTED_NOISE);
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|_| (w.sample(&mut rng), vec![true; dim]))
        .collect();
    (
        Rows {
            rows,
            outlier: vec![false; n],
        },
        w.basis().clone(),
    )
}

/// The estimator configuration the CLI builds from `--components` and
/// `--memory`.
pub fn pca_config(dim: usize, components: usize, memory: usize) -> PcaConfig {
    PcaConfig::new(dim, components)
        .with_memory(memory)
        .with_extra(2)
}

/// The CSV lines of a file, as byte strings with their newline.
pub fn csv_lines(path: &Path) -> std::io::Result<Vec<Vec<u8>>> {
    let text = std::fs::read(path)?;
    Ok(text
        .split_inclusive(|&b| b == b'\n')
        .map(|l| l.to_vec())
        .collect())
}
