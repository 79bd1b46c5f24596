//! Differentiable operations on [`Tape`].
//!
//! Each method performs the forward computation eagerly and records pullback
//! closures that turn the upstream gradient into gradients for the operands.
//! The set of operations is exactly what the transformer substrate and the
//! learned-pruning fine-tuning loop need; anything more exotic can be added
//! through [`Tape::custom_unary`] / [`Tape::custom_binary`].

use crate::tape::{Pullback, Tape, Var};
use leopard_tensor::{ops, Matrix};

impl Tape {
    /// Element-wise addition. Shapes must match.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av + bv));
        self.push_op(
            value,
            vec![
                (a.id, Box::new(|up: &Matrix| up.clone())),
                (b.id, Box::new(|up: &Matrix| up.clone())),
            ],
        )
    }

    /// Element-wise subtraction `a - b`. Shapes must match.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av - bv));
        self.push_op(
            value,
            vec![
                (a.id, Box::new(|up: &Matrix| up.clone())),
                (b.id, Box::new(|up: &Matrix| -up)),
            ],
        )
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn hadamard(&self, a: Var, b: Var) -> Var {
        let a_val = self.value(a);
        let b_val = self.value(b);
        let value = a_val.hadamard(&b_val);
        self.push_op(
            value,
            vec![
                (a.id, Box::new(move |up: &Matrix| up.hadamard(&b_val))),
                (b.id, Box::new(move |up: &Matrix| up.hadamard(&a_val))),
            ],
        )
    }

    /// Multiplies every element by the constant `factor`.
    pub fn scale(&self, a: Var, factor: f32) -> Var {
        let value = self.with_value(a, |av| av.scale(factor));
        self.push_op(
            value,
            vec![(a.id, Box::new(move |up: &Matrix| up.scale(factor)))],
        )
    }

    /// Adds the constant `offset` to every element.
    pub fn shift(&self, a: Var, offset: f32) -> Var {
        let value = self.with_value(a, |av| av.shift(offset));
        self.push_op(value, vec![(a.id, Box::new(|up: &Matrix| up.clone()))])
    }

    /// Matrix product `a * b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let a_val = self.value(a);
        let b_val = self.value(b);
        let value = a_val.matmul(&b_val);
        let a_for_b = a_val.clone();
        let b_for_a = b_val.clone();
        self.push_op(
            value,
            vec![
                (
                    a.id,
                    Box::new(move |up: &Matrix| up.matmul(&b_for_a.transpose())),
                ),
                (
                    b.id,
                    Box::new(move |up: &Matrix| a_for_b.transpose().matmul(up)),
                ),
            ],
        )
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let value = self.with_value(a, |av| av.transpose());
        self.push_op(value, vec![(a.id, Box::new(|up: &Matrix| up.transpose()))])
    }

    /// Broadcast-adds a `1 x cols` bias row vector to every row of `a`.
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(bias, |bv| av.add_row_broadcast(bv)));
        self.push_op(
            value,
            vec![
                (a.id, Box::new(|up: &Matrix| up.clone())),
                (bias.id, Box::new(|up: &Matrix| up.sum_cols())),
            ],
        )
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.with_value(a, |av| av.map(f32::tanh));
        let out = value.clone();
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| up.hadamard(&out.map(|y| 1.0 - y * y))),
            )],
        )
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let value = self.with_value(a, |av| av.map(ops::sigmoid));
        let out = value.clone();
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| up.hadamard(&out.map(|y| y * (1.0 - y)))),
            )],
        )
    }

    /// Element-wise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let a_val = self.value(a);
        let value = a_val.map(ops::relu);
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| {
                    up.hadamard(&a_val.map(|x| if x > 0.0 { 1.0 } else { 0.0 }))
                }),
            )],
        )
    }

    /// Element-wise GELU (tanh approximation), bit-identical to
    /// [`ops::gelu`]. The forward pass keeps its `tanh`, and the pullback
    /// uses it in the exact derivative of the approximation.
    pub fn gelu(&self, a: Var) -> Var {
        let x = self.value(a);
        let t = x.map(ops::gelu_inner_tanh);
        let mut value = x.clone();
        for (v, &t) in value.iter_mut().zip(t.iter()) {
            *v = 0.5 * *v * (1.0 + t);
        }
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| {
                    let mut grad = up.clone();
                    for ((g, &x), &t) in grad.iter_mut().zip(x.iter()).zip(t.iter()) {
                        *g *= gelu_derivative_from_tanh(x, t);
                    }
                    grad
                }),
            )],
        )
    }

    /// Row-wise softmax (Equation 3 of the paper).
    pub fn softmax_rows(&self, a: Var) -> Var {
        let value = self.with_value(a, ops::softmax_rows);
        let probs = value.clone();
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| {
                    // d softmax: for each row, grad = p ⊙ (up - (up·p))
                    let mut grad = Matrix::zeros(probs.rows(), probs.cols());
                    for r in 0..probs.rows() {
                        let p = probs.row(r);
                        let u = up.row(r);
                        let dot: f32 = p.iter().zip(u.iter()).map(|(x, y)| x * y).sum();
                        for c in 0..probs.cols() {
                            grad[(r, c)] = p[c] * (u[c] - dot);
                        }
                    }
                    grad
                }),
            )],
        )
    }

    /// Row-wise layer normalization with learnable `gamma` and `beta`
    /// (each `1 x cols`).
    pub fn layer_norm(&self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let x = self.value(a);
        let g = self.value(gamma);
        let b = self.value(beta);
        let value = ops::layer_norm_rows(&x, &g, &b, eps);

        // Pre-compute per-row normalization terms shared by the pullbacks.
        let rows = x.rows();
        let cols = x.cols();
        let mut x_hat = Matrix::zeros(rows, cols);
        let mut inv_std = vec![0.0f32; rows];
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            inv_std[r] = 1.0 / (var + eps).sqrt();
            for c in 0..cols {
                x_hat[(r, c)] = (row[c] - mean) * inv_std[r];
            }
        }

        let x_hat_a = x_hat.clone();
        let g_a = g.clone();
        let inv_std_a = inv_std.clone();
        let x_hat_g = x_hat.clone();
        self.push_op(
            value,
            vec![
                (
                    a.id,
                    Box::new(move |up: &Matrix| {
                        // Standard layer-norm backward over each row.
                        let mut grad = Matrix::zeros(rows, cols);
                        for r in 0..rows {
                            let n = cols as f32;
                            let mut sum_dy = 0.0;
                            let mut sum_dy_xhat = 0.0;
                            for c in 0..cols {
                                let dy = up[(r, c)] * g_a[(0, c)];
                                sum_dy += dy;
                                sum_dy_xhat += dy * x_hat_a[(r, c)];
                            }
                            for c in 0..cols {
                                let dy = up[(r, c)] * g_a[(0, c)];
                                grad[(r, c)] = inv_std_a[r]
                                    * (dy - sum_dy / n - x_hat_a[(r, c)] * sum_dy_xhat / n);
                            }
                        }
                        grad
                    }),
                ),
                (
                    gamma.id,
                    Box::new(move |up: &Matrix| up.hadamard(&x_hat_g).sum_cols()),
                ),
                (beta.id, Box::new(|up: &Matrix| up.sum_cols())),
            ],
        )
    }

    /// Sum of all elements, producing a `1 x 1` scalar.
    pub fn sum(&self, a: Var) -> Var {
        let (rows, cols) = self.shape(a);
        let value = Matrix::filled(1, 1, self.with_value(a, |av| av.sum()));
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| Matrix::filled(rows, cols, up[(0, 0)])),
            )],
        )
    }

    /// Mean of all elements, producing a `1 x 1` scalar.
    pub fn mean(&self, a: Var) -> Var {
        let (rows, cols) = self.shape(a);
        let n = (rows * cols) as f32;
        let value = Matrix::filled(1, 1, self.with_value(a, |av| av.mean()));
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| Matrix::filled(rows, cols, up[(0, 0)] / n)),
            )],
        )
    }

    /// Mean squared deviation from zero (`mean(a^2)`), producing a scalar.
    /// Handy for weight decay terms and the doc-test in the crate root.
    pub fn mse_to_zero(&self, a: Var) -> Var {
        let a_val = self.value(a);
        let n = a_val.len() as f32;
        let value = Matrix::filled(1, 1, a_val.iter().map(|v| v * v).sum::<f32>() / n);
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| a_val.scale(2.0 / n * up[(0, 0)])),
            )],
        )
    }

    /// Mean cross-entropy between row-wise logits and integer labels,
    /// producing a `1 x 1` scalar loss.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of logit rows.
    pub fn cross_entropy(&self, logits: Var, labels: &[usize]) -> Var {
        let logit_val = self.value(logits);
        assert_eq!(
            labels.len(),
            logit_val.rows(),
            "one label per logit row required"
        );
        let value = Matrix::filled(1, 1, ops::cross_entropy(&logit_val, labels));
        let probs = ops::softmax_rows(&logit_val);
        let labels = labels.to_vec();
        self.push_op(
            value,
            vec![(
                logits.id,
                Box::new(move |up: &Matrix| {
                    // d/d logits of mean CE = (softmax - onehot) / batch
                    let mut grad = probs.clone();
                    let batch = labels.len() as f32;
                    for (r, &label) in labels.iter().enumerate() {
                        grad[(r, label)] -= 1.0;
                    }
                    grad.scale(up[(0, 0)] / batch)
                }),
            )],
        )
    }

    /// Mean squared error between `a` and a constant `target` of the same
    /// shape, producing a scalar.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(&self, a: Var, target: &Matrix) -> Var {
        let a_val = self.value(a);
        assert_eq!(a_val.shape(), target.shape(), "mse_loss shape mismatch");
        let n = a_val.len() as f32;
        let value = Matrix::filled(1, 1, ops::mse(&a_val, target));
        let diff = &a_val - target;
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| diff.scale(2.0 / n * up[(0, 0)])),
            )],
        )
    }

    /// Extracts rows `[start, end)` of `a` as a new node. Gradients are routed
    /// back into the corresponding rows.
    pub fn rows_slice(&self, a: Var, start: usize, end: usize) -> Var {
        let a_val = self.value(a);
        let (rows, cols) = a_val.shape();
        assert!(start <= end && end <= rows, "invalid rows_slice range");
        let value = a_val.rows_slice(start, end);
        self.push_op(
            value,
            vec![(
                a.id,
                Box::new(move |up: &Matrix| {
                    let mut grad = Matrix::zeros(rows, cols);
                    for r in start..end {
                        grad.row_mut(r).copy_from_slice(up.row(r - start));
                    }
                    grad
                }),
            )],
        )
    }

    /// Horizontally concatenates nodes (all must have the same row count).
    /// Used to merge per-head attention outputs (Equation 5).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hstack(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hstack requires at least one part");
        let values: Vec<Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let value = Matrix::hstack(&refs);
        let rows = value.rows();
        let mut parents: Vec<(usize, Pullback)> = Vec::new();
        let mut offset = 0usize;
        for (part, val) in parts.iter().zip(values.iter()) {
            let cols = val.cols();
            let start = offset;
            parents.push((
                part.id,
                Box::new(move |up: &Matrix| {
                    let mut grad = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        grad.row_mut(r)
                            .copy_from_slice(&up.row(r)[start..start + cols]);
                    }
                    grad
                }),
            ));
            offset += cols;
        }
        self.push_op(value, parents)
    }
}

/// `gelu_derivative` given the forward pass's `t = ops::gelu_inner_tanh(x)`.
fn gelu_derivative_from_tanh(x: f32, t: f32) -> f32 {
    let k = (2.0 / std::f32::consts::PI).sqrt();
    let d_inner = k * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
}

/// Derivative of the tanh-approximated GELU: the closed form the pullback
/// is tested against.
#[cfg(test)]
fn gelu_derivative(x: f32) -> f32 {
    let k = (2.0 / std::f32::consts::PI).sqrt();
    let inner = k * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let d_inner = k * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_unary;
    use leopard_tensor::rng;

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        rng::uniform_matrix(&mut rng::seeded(seed), rows, cols, -1.5, 1.5)
    }

    #[test]
    fn add_sub_values_and_grads() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[vec![3.0, 5.0]]));
        let sum = tape.add(a, b);
        let diff = tape.sub(sum, a);
        let loss = tape.sum(diff);
        assert_eq!(tape.value(sum), Matrix::from_rows(&[vec![4.0, 7.0]]));
        assert_eq!(tape.value(diff), tape.value(b));
        tape.backward(loss);
        // d(sum(a + b - a))/da = 0, /db = 1
        assert_eq!(tape.grad(a), Matrix::zeros(1, 2));
        assert_eq!(tape.grad(b), Matrix::ones(1, 2));
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let a0 = sample(3, 4, 1);
        let b0 = sample(4, 2, 2);
        // Check dL/dA where L = sum(A*B)
        let b_fixed = b0.clone();
        let max_err = check_unary(&a0, 1e-2, move |tape, a| {
            let b = tape.constant(b_fixed.clone());
            let prod = tape.matmul(a, b);
            tape.sum(prod)
        });
        assert!(max_err < 1e-2, "matmul grad error {max_err}");

        // Check dL/dB
        let a_fixed = a0;
        let max_err = check_unary(&b0, 1e-2, move |tape, b| {
            let a = tape.constant(a_fixed.clone());
            let prod = tape.matmul(a, b);
            tape.sum(prod)
        });
        assert!(max_err < 1e-2, "matmul grad error {max_err}");
    }

    #[test]
    fn activations_match_finite_difference() {
        let x = sample(2, 5, 3);
        for (name, f) in [("tanh", 0usize), ("sigmoid", 1), ("relu", 2), ("gelu", 3)] {
            let err = check_unary(&x, 1e-2, move |tape, v| {
                let y = match f {
                    0 => tape.tanh(v),
                    1 => tape.sigmoid(v),
                    2 => tape.relu(v),
                    _ => tape.gelu(v),
                };
                tape.sum(y)
            });
            assert!(err < 2e-2, "{name} grad error {err}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gelu_matches_closed_forms_bit_for_bit() {
        // ±0, a subnormal, the linear and curved regions, the saturated
        // tanh region, a cube that overflows, and ±inf.
        let probes = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            0.5,
            -0.5,
            1.7,
            -2.3,
            4.0,
            -4.0,
            9.5,
            -9.5,
            40.0,
            -40.0,
            1e20,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        // Plus a sweep through the curved region, where rounding differs most.
        let sweep = (0..512).map(|i| -8.0 + 0.031 * i as f32);
        let x = Matrix::row_vector(&probes.into_iter().chain(sweep).collect::<Vec<_>>());
        let up = x.map(|x| 0.25 - 0.125 * x.clamp(-4.0, 4.0));
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let y = tape.gelu(xv);
        let weighted = tape.hadamard(y, tape.constant(up.clone()));
        tape.backward(tape.sum(weighted));
        assert_eq!(bits(&tape.value(y)), bits(&x.map(ops::gelu)));
        let expected: Vec<u32> = up
            .iter()
            .zip(x.iter())
            .map(|(&u, &x)| (u * gelu_derivative(x)).to_bits())
            .collect();
        assert_eq!(bits(&tape.grad(xv)), expected);
    }

    #[test]
    fn softmax_rows_gradient_matches_finite_difference() {
        let x = sample(3, 6, 4);
        // Use a weighted sum so the gradient is not trivially zero.
        let weights = sample(3, 6, 5);
        let w = weights.clone();
        let err = check_unary(&x, 1e-2, move |tape, v| {
            let p = tape.softmax_rows(v);
            let wc = tape.constant(w.clone());
            let weighted = tape.hadamard(p, wc);
            tape.sum(weighted)
        });
        assert!(err < 1e-2, "softmax grad error {err}");
    }

    #[test]
    fn layer_norm_gradient_matches_finite_difference() {
        let x = sample(2, 8, 6);
        let gamma = Matrix::ones(1, 8);
        let beta = Matrix::zeros(1, 8);
        let w = sample(2, 8, 7);
        let (g, b, wc) = (gamma, beta, w);
        let err = check_unary(&x, 1e-2, move |tape, v| {
            let gv = tape.constant(g.clone());
            let bv = tape.constant(b.clone());
            let y = tape.layer_norm(v, gv, bv, 1e-5);
            let weighted = tape.hadamard(y, tape.constant(wc.clone()));
            tape.sum(weighted)
        });
        assert!(err < 2e-2, "layer_norm grad error {err}");
    }

    #[test]
    fn layer_norm_gamma_beta_gradients() {
        let x = sample(3, 4, 8);
        let gamma0 = Matrix::filled(1, 4, 0.7);
        let beta0 = Matrix::filled(1, 4, -0.2);

        let xc = x.clone();
        let b0 = beta0.clone();
        let err = check_unary(&gamma0, 1e-2, move |tape, g| {
            let xv = tape.constant(xc.clone());
            let bv = tape.constant(b0.clone());
            let y = tape.layer_norm(xv, g, bv, 1e-5);
            tape.sum(y)
        });
        assert!(err < 2e-2, "gamma grad error {err}");

        let xc = x;
        let g0 = gamma0;
        let err = check_unary(&beta0, 1e-2, move |tape, b| {
            let xv = tape.constant(xc.clone());
            let gv = tape.constant(g0.clone());
            let y = tape.layer_norm(xv, gv, b, 1e-5);
            tape.sum(y)
        });
        assert!(err < 2e-2, "beta grad error {err}");
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = sample(4, 3, 9);
        let labels = vec![0usize, 2, 1, 1];
        let l = labels.clone();
        let err = check_unary(&logits, 1e-2, move |tape, v| tape.cross_entropy(v, &l));
        assert!(err < 1e-2, "cross entropy grad error {err}");
    }

    #[test]
    fn mse_loss_gradient_matches_finite_difference() {
        let pred = sample(3, 3, 10);
        let target = sample(3, 3, 11);
        let t = target;
        let err = check_unary(&pred, 1e-2, move |tape, v| tape.mse_loss(v, &t));
        assert!(err < 1e-2, "mse grad error {err}");
    }

    #[test]
    fn broadcast_bias_gradient_sums_over_rows() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let bias = tape.leaf(Matrix::row_vector(&[10.0, 20.0]));
        let y = tape.add_row_broadcast(x, bias);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(bias), Matrix::row_vector(&[2.0, 2.0]));
        assert_eq!(tape.grad(x), Matrix::ones(2, 2));
    }

    #[test]
    fn rows_slice_routes_gradients() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let mid = tape.rows_slice(x, 1, 2);
        let loss = tape.sum(mid);
        tape.backward(loss);
        assert_eq!(
            tape.grad(x),
            Matrix::from_rows(&[vec![0.0], vec![1.0], vec![0.0]])
        );
    }

    #[test]
    fn hstack_splits_gradients() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]));
        let joined = tape.hstack(&[a, b]);
        assert_eq!(tape.shape(joined), (2, 3));
        // Weight only the column that came from `a`.
        let mask = tape.constant(Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
        ]));
        let masked = tape.hadamard(joined, mask);
        let loss = tape.sum(masked);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::ones(2, 1));
        assert_eq!(tape.grad(b), Matrix::zeros(2, 2));
    }

    #[test]
    fn scale_shift_mean_compose() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(2, 2, 3.0));
        let y = tape.shift(tape.scale(x, 2.0), 1.0);
        let m = tape.mean(y);
        assert_eq!(tape.value(m)[(0, 0)], 7.0);
        tape.backward(m);
        assert_eq!(tape.grad(x), Matrix::filled(2, 2, 0.5));
    }

    #[test]
    fn transpose_gradient() {
        let x0 = sample(3, 2, 12);
        let w = sample(2, 3, 13);
        let wc = w;
        let err = check_unary(&x0, 1e-2, move |tape, v| {
            let t = tape.transpose(v);
            let weighted = tape.hadamard(t, tape.constant(wc.clone()));
            tape.sum(weighted)
        });
        assert!(err < 1e-2, "transpose grad error {err}");
    }
}
