//! A minimal dense neural network with manual backpropagation and Adam —
//! the function approximator behind the deep Q-network (§3.2). No external
//! ML dependency: the network is a plain MLP with ReLU hidden activations and a
//! linear output.

use perfdojo_util::rng::Rng;
use perfdojo_util::trace::{push_f32s, Lines};

/// One dense layer with Adam state.
#[derive(Clone, Debug)]
struct Linear {
    w: Vec<f32>, // out*in, row-major
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
    nin: usize,
    nout: usize,
}

impl Linear {
    fn new(nin: usize, nout: usize, rng: &mut Rng) -> Self {
        let scale = (2.0 / nin as f32).sqrt();
        let w: Vec<f32> = (0..nin * nout).map(|_| rng.random_range(-scale..scale)).collect();
        Linear {
            w,
            b: vec![0.0; nout],
            gw: vec![0.0; nin * nout],
            gb: vec![0.0; nout],
            mw: vec![0.0; nin * nout],
            vw: vec![0.0; nin * nout],
            mb: vec![0.0; nout],
            vb: vec![0.0; nout],
            nin,
            nout,
        }
    }

    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        for o in 0..self.nout {
            let row = &self.w[o * self.nin..(o + 1) * self.nin];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }

    /// Accumulate gradients for one sample; returns grad wrt input.
    fn backward(&mut self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0; self.nin];
        for o in 0..self.nout {
            let g = dy[o];
            self.gb[o] += g;
            let row = &self.w[o * self.nin..(o + 1) * self.nin];
            let grow = &mut self.gw[o * self.nin..(o + 1) * self.nin];
            for i in 0..self.nin {
                grow[i] += g * x[i];
                dx[i] += g * row[i];
            }
        }
        dx
    }

    fn adam_step(&mut self, lr: f32, t: u64, batch: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let corr1 = 1.0 - B1.powi(t as i32);
        let corr2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.len() {
            let g = self.gw[i] / batch;
            self.mw[i] = B1 * self.mw[i] + (1.0 - B1) * g;
            self.vw[i] = B2 * self.vw[i] + (1.0 - B2) * g * g;
            self.w[i] -= lr * (self.mw[i] / corr1) / ((self.vw[i] / corr2).sqrt() + EPS);
            self.gw[i] = 0.0;
        }
        for i in 0..self.b.len() {
            let g = self.gb[i] / batch;
            self.mb[i] = B1 * self.mb[i] + (1.0 - B1) * g;
            self.vb[i] = B2 * self.vb[i] + (1.0 - B2) * g * g;
            self.b[i] -= lr * (self.mb[i] / corr1) / ((self.vb[i] / corr2).sqrt() + EPS);
            self.gb[i] = 0.0;
        }
    }
}

/// A multilayer perceptron: ReLU hidden layers, linear output.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    adam_t: u64,
}

impl Mlp {
    /// Build from layer widths, e.g. `[256, 128, 64, 1]`.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2);
        let mut rng = Rng::seed_from_u64(seed);
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], &mut rng)).collect();
        Mlp { layers, adam_t: 0 }
    }

    /// True when the layers chain through exactly the widths `dims` — the
    /// shape [`Mlp::new`] builds from them.
    pub fn has_dims(&self, dims: &[usize]) -> bool {
        self.layers.len() + 1 == dims.len()
            && self.layers.iter().zip(dims.windows(2)).all(|(l, w)| (l.nin, l.nout) == (w[0], w[1]))
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let mut buf = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            l.forward(&cur, &mut buf);
            if i + 1 < self.layers.len() {
                for v in &mut buf {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut buf);
        }
        cur
    }

    /// Forward keeping activations (for backprop).
    fn forward_cached(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut acts = vec![x.to_vec()];
        let mut buf = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            l.forward(acts.last().unwrap(), &mut buf);
            if i + 1 < self.layers.len() {
                for v in &mut buf {
                    *v = v.max(0.0);
                }
            }
            acts.push(buf.clone());
        }
        acts
    }

    /// Accumulate gradients for one sample given output-gradient `dy`.
    pub fn backward(&mut self, x: &[f32], dy: &[f32]) {
        let acts = self.forward_cached(x);
        let mut grad = dy.to_vec();
        for li in (0..self.layers.len()).rev() {
            // undo ReLU mask for hidden layers
            if li + 1 < self.layers.len() {
                for (g, a) in grad.iter_mut().zip(&acts[li + 1]) {
                    if *a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            grad = self.layers[li].backward(&acts[li], &grad);
        }
    }

    /// Apply accumulated gradients with Adam, dividing by `batch`.
    pub fn step(&mut self, lr: f32, batch: usize) {
        self.adam_t += 1;
        for l in &mut self.layers {
            l.adam_step(lr, self.adam_t, batch.max(1) as f32);
        }
    }

    /// Copy another network's parameters (target-network sync).
    pub fn copy_params_from(&mut self, other: &Mlp) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.w.copy_from_slice(&b.w);
            a.b.copy_from_slice(&b.b);
        }
    }

    /// Append a lossless text serialization: weights, biases and Adam
    /// moments as exact `f32` bit patterns, plus the Adam step counter.
    ///
    /// Gradient accumulators are *not* stored: [`Mlp::step`] flushes them
    /// to zero, so at any step boundary (where checkpoints are taken) they
    /// carry no information.
    pub fn write_text(&self, out: &mut String) {
        out.push_str(&format!("mlp {} {}\n", self.adam_t, self.layers.len()));
        for l in &self.layers {
            out.push_str(&format!("layer {} {}\n", l.nin, l.nout));
            push_f32s(out, "w", &l.w);
            push_f32s(out, "b", &l.b);
            push_f32s(out, "mw", &l.mw);
            push_f32s(out, "vw", &l.vw);
            push_f32s(out, "mb", &l.mb);
            push_f32s(out, "vb", &l.vb);
        }
    }

    /// Restore a network from [`Mlp::write_text`] lines, consuming exactly
    /// the lines it wrote (so agent-level parsers can compose).
    pub fn parse_text(l: &mut Lines<'_>) -> Result<Mlp, String> {
        let [adam_t, nlayers]: [usize; 2] = l.ints("mlp")?;
        let layers = l.repeat(nlayers, |l| {
            let [nin, nout] = l.ints("layer")?;
            let nw = l.product(nin, nout)?;
            Ok(Linear {
                w: l.f32s("w", nw)?,
                b: l.f32s("b", nout)?,
                gw: vec![0.0; nw],
                gb: vec![0.0; nout],
                mw: l.f32s("mw", nw)?,
                vw: l.f32s("vw", nw)?,
                mb: l.f32s("mb", nout)?,
                vb: l.f32s("vb", nout)?,
                nin,
                nout,
            })
        })?;
        Ok(Mlp { layers, adam_t: adam_t as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_converges() {
        // learn y = 2*x0 - x1 + 0.5
        let mut net = Mlp::new(&[2, 16, 1], 7);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..2500 {
            let mut loss = 0.0;
            for _ in 0..16 {
                let x = [rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)];
                let y = 2.0 * x[0] - x[1] + 0.5;
                let pred = net.forward(&x)[0];
                let err = pred - y;
                loss += err * err;
                net.backward(&x, &[2.0 * err]);
            }
            net.step(1e-2, 16);
            let _ = loss;
        }
        let p = net.forward(&[0.3, -0.2])[0];
        assert!((p - (0.6 + 0.2 + 0.5)).abs() < 0.08, "pred {p}");
    }

    #[test]
    fn gradient_check() {
        // numerical vs analytic gradient on a tiny net
        let mut net = Mlp::new(&[3, 4, 1], 42);
        let x = [0.3f32, -0.7, 0.1];
        // d(out)/d(w): backward with dy=1 accumulates gw; compare one weight
        net.backward(&x, &[1.0]);
        let analytic = net.layers[0].gw[1] / 1.0;
        // numerical
        let mut plus = net.clone();
        plus.layers[0].w[1] += 1e-3;
        let mut minus = net.clone();
        minus.layers[0].w[1] -= 1e-3;
        let numeric = (plus.forward(&x)[0] - minus.forward(&x)[0]) / 2e-3;
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn target_sync_copies_params() {
        let a = Mlp::new(&[2, 4, 1], 1);
        let mut b = Mlp::new(&[2, 4, 1], 2);
        assert_ne!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
        b.copy_params_from(&a);
        assert_eq!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
    }

    #[test]
    fn text_round_trip_mid_training_continues_bit_identically() {
        let mut net = Mlp::new(&[2, 8, 1], 3);
        let mut rng = Rng::seed_from_u64(4);
        let sample = |rng: &mut Rng| {
            let x = [rng.random_range(-1.0f32..1.0), rng.random_range(-1.0f32..1.0)];
            (x, x[0] - 0.5 * x[1])
        };
        for _ in 0..40 {
            let (x, y) = sample(&mut rng);
            let err = net.forward(&x)[0] - y;
            net.backward(&x, &[2.0 * err]);
            net.step(1e-2, 1);
        }
        let mut text = String::new();
        net.write_text(&mut text);
        let mut restored = Mlp::parse_text(&mut Lines::new(&text)).unwrap();
        // re-serialization is byte-identical (Adam moments included)
        let mut text2 = String::new();
        restored.write_text(&mut text2);
        assert_eq!(text, text2);
        // and further training diverges nowhere: same data -> same bits
        let mut rng2 = rng.clone();
        for _ in 0..40 {
            let (x, y) = sample(&mut rng);
            let err = net.forward(&x)[0] - y;
            net.backward(&x, &[2.0 * err]);
            net.step(1e-2, 1);
            let (x2, y2) = sample(&mut rng2);
            let err2 = restored.forward(&x2)[0] - y2;
            restored.backward(&x2, &[2.0 * err2]);
            restored.step(1e-2, 1);
        }
        let (a, b) = (net.forward(&[0.3, 0.7])[0], restored.forward(&[0.3, 0.7])[0]);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn parse_rejects_corrupt_text() {
        let net = Mlp::new(&[2, 4, 1], 1);
        let mut text = String::new();
        net.write_text(&mut text);
        assert!(Mlp::parse_text(&mut Lines::new(&text[..text.len() / 2])).is_err());
        let bad = text.replacen("w ", "w zz", 1);
        assert!(Mlp::parse_text(&mut Lines::new(&bad)).is_err());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 8, 1], 5);
        let b = Mlp::new(&[4, 8, 1], 5);
        assert_eq!(a.forward(&[0.1, 0.2, 0.3, 0.4]), b.forward(&[0.1, 0.2, 0.3, 0.4]));
    }
}
