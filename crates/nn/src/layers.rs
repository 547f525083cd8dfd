//! Trainable layers with hand-written forward/backward passes.
//!
//! The [`Module`] trait is deliberately tiny: forward caches whatever the
//! backward pass needs (training here is strictly sequential), and
//! `visit_params` exposes `(param, grad)` slices to the optimizer in a stable
//! order. Every backward implementation is validated against central finite
//! differences in the crate's gradient-check tests.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A differentiable module mapping a batch matrix to a batch matrix.
pub trait Module {
    /// Compute outputs for `x` (rows = batch items), caching intermediates.
    fn forward(&mut self, x: &Matrix) -> Matrix;

    /// Given `dL/d(output)`, accumulate parameter gradients and return
    /// `dL/d(input)`. Must be called after a matching `forward`.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visit `(parameters, gradients)` pairs in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Reset all accumulated gradients to zero.
    fn zero_grad(&mut self);
}

/// Fully connected layer `y = x·W + b` with `W: in×out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in_dim x out_dim`.
    pub w: Matrix,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    /// The last forward input, which `backward` differentiates against.
    #[serde(skip)]
    pub(crate) cache_x: Option<Matrix>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            cache_x: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for r in 0..y.rows {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("backward called before forward");
        // dW += xᵀ · dY; db += column sums of dY; dX = dY · Wᵀ.
        self.gw.add_assign(&x.t_matmul(grad_out));
        for r in 0..grad_out.rows {
            for (g, d) in self.gb.iter_mut().zip(grad_out.row(r)) {
                *g += d;
            }
        }
        grad_out.matmul_t(&self.w)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w.data, &mut self.gw.data);
        f(&mut self.b, &mut self.gb);
    }

    fn zero_grad(&mut self) {
        self.gw.zero();
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Element-wise `tanh`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tanh {
    #[serde(skip)]
    cache_y: Option<Matrix>,
}

impl Tanh {
    /// New activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for Tanh {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        for v in &mut y.data {
            *v = v.tanh();
        }
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let y = self
            .cache_y
            .as_ref()
            .expect("backward called before forward");
        let mut gx = grad_out.clone();
        for (g, &yv) in gx.data.iter_mut().zip(&y.data) {
            *g *= 1.0 - yv * yv;
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grad(&mut self) {}
}

/// Element-wise ReLU.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    cache_x: Option<Matrix>,
}

impl Relu {
    /// New activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for Relu {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_x = Some(x.clone());
        let mut y = x.clone();
        for v in &mut y.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            .expect("backward called before forward");
        let mut gx = grad_out.clone();
        for (g, &xv) in gx.data.iter_mut().zip(&x.data) {
            if xv <= 0.0 {
                *g = 0.0;
            }
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    fn zero_grad(&mut self) {}
}

/// A sequential chain of modules.
#[derive(Default)]
pub struct Sequential {
    /// The chained modules, applied in order.
    pub layers: Vec<Box<dyn Module + Send>>,
}

impl Sequential {
    /// Empty chain.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a module.
    pub fn push<M: Module + Send + 'static>(mut self, m: M) -> Self {
        self.layers.push(Box::new(m));
        self
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_module_input_grad;

    #[test]
    fn linear_forward_known() {
        let mut l = Linear::new(2, 2, 1);
        l.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        l.b = vec![10., 20.];
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let y = l.forward(&x);
        assert_eq!(y.data, vec![14., 26.]);
    }

    #[test]
    fn linear_grads_check() {
        let l = Linear::new(3, 2, 7);
        check_module_input_grad(l, 2, 3, 0x11);
    }

    #[test]
    fn tanh_grads_check() {
        check_module_input_grad(Tanh::new(), 2, 4, 0x12);
    }

    #[test]
    fn relu_grads_check() {
        check_module_input_grad(Relu::new(), 2, 4, 0x13);
    }

    #[test]
    fn sequential_grads_check() {
        let seq = Sequential::new()
            .push(Linear::new(3, 5, 1))
            .push(Tanh::new())
            .push(Linear::new(5, 2, 2));
        check_module_input_grad(seq, 3, 3, 0x14);
    }

    #[test]
    fn zero_grad_clears() {
        let mut l = Linear::new(2, 2, 3);
        let x = Matrix::from_vec(1, 2, vec![1., 2.]);
        let _ = l.forward(&x);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1., 1.]));
        let mut any_nonzero = false;
        l.visit_params(&mut |_, g| any_nonzero |= g.iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        l.zero_grad();
        l.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }
}
