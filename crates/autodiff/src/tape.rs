//! The computation tape: a dynamically built reverse-mode autodiff graph.

use leopard_tensor::Matrix;
use std::cell::RefCell;

/// Handle to a node on a [`Tape`].
///
/// `Var` is a cheap copyable index; it is only meaningful for the tape that
/// created it. Using a `Var` with a different tape is a logic error and will
/// either panic (out-of-range index) or silently address the wrong node, so
/// keep tapes short-lived: build one per forward/backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// A pullback: given the gradient flowing into a node, produce the gradient
/// contribution for one of its parents.
pub(crate) type Pullback = Box<dyn Fn(&Matrix) -> Matrix>;

/// What a node is, which decides what [`Tape::backward`] keeps for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A trainable parameter: its gradient is kept after `backward`.
    Leaf,
    /// An input or label: it never receives a gradient.
    Constant,
    /// An operation's output: its gradient is consumed by its pullbacks.
    Op,
}

struct Node {
    value: Matrix,
    /// `(parent id, pullback)` pairs, only for parents that lead back to a
    /// leaf. Leaves and constants have none, and so has an op computed from
    /// constants alone.
    parents: Vec<(usize, Pullback)>,
    kind: Kind,
}

impl Node {
    /// Whether a gradient flowing into this node can reach a leaf.
    fn requires_grad(&self) -> bool {
        match self.kind {
            Kind::Leaf => true,
            Kind::Constant => false,
            Kind::Op => !self.parents.is_empty(),
        }
    }
}

/// A reverse-mode automatic differentiation tape.
///
/// The tape owns every intermediate value of a forward pass. Operations are
/// methods that append nodes and return [`Var`] handles; [`Tape::backward`]
/// then walks the nodes in reverse creation order (which is already a valid
/// topological order for a dynamically built graph) accumulating gradients.
///
/// Interior mutability (`RefCell`) keeps the op methods ergonomic (`&self`),
/// matching how the transformer layers thread a shared tape reference through
/// their forward passes.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Matrix>>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
            grads: RefCell::new(Vec::new()),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Registers a trainable leaf (a parameter). Gradients will be available
    /// via [`Tape::grad`] after [`Tape::backward`].
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(Node {
            value,
            parents: Vec::new(),
            kind: Kind::Leaf,
        })
    }

    /// Registers a constant (an input or label). No gradient is accumulated.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(Node {
            value,
            parents: Vec::new(),
            kind: Kind::Constant,
        })
    }

    /// Returns a clone of the value stored at `var`.
    pub fn value(&self, var: Var) -> Matrix {
        self.nodes.borrow()[var.id].value.clone()
    }

    /// Shape of the value stored at `var` without cloning it.
    pub fn shape(&self, var: Var) -> (usize, usize) {
        self.nodes.borrow()[var.id].value.shape()
    }

    /// Returns the gradient accumulated at `var`, a [`Tape::leaf`] or a
    /// [`Tape::constant`].
    ///
    /// A leaf the loss does not depend on, and every constant, has an
    /// all-zeros gradient. [`Tape::backward`] consumes the gradients of
    /// operation outputs as it goes, so those are not available.
    ///
    /// # Panics
    ///
    /// Panics if [`Tape::backward`] has not been called, or if `var` is the
    /// output of an operation (an interior node).
    pub fn grad(&self, var: Var) -> Matrix {
        let grads = self.grads.borrow();
        assert!(!grads.is_empty(), "Tape::grad called before Tape::backward");
        let nodes = self.nodes.borrow();
        let node = &nodes[var.id];
        assert!(
            node.kind != Kind::Op,
            "Tape::grad called on an interior node: only leaves and constants keep gradients"
        );
        match &grads[var.id] {
            Some(g) => g.clone(),
            None => {
                let (rows, cols) = node.value.shape();
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Records a custom differentiable unary operation.
    ///
    /// `value` is the already computed output; `pullback` maps the upstream
    /// gradient (shaped like `value`) to the gradient with respect to the
    /// input (shaped like the input). This is the extension point the
    /// `leopard-core` crate uses to implement the soft-threshold pruning
    /// operation and the surrogate L0 regularizer.
    pub fn custom_unary(
        &self,
        input: Var,
        value: Matrix,
        pullback: impl Fn(&Matrix) -> Matrix + 'static,
    ) -> Var {
        self.push_op(value, vec![(input.id, Box::new(pullback))])
    }

    /// Records a custom differentiable binary operation with one pullback per
    /// input. See [`Tape::custom_unary`].
    pub fn custom_binary(
        &self,
        a: Var,
        b: Var,
        value: Matrix,
        pullback_a: impl Fn(&Matrix) -> Matrix + 'static,
        pullback_b: impl Fn(&Matrix) -> Matrix + 'static,
    ) -> Var {
        self.push_op(
            value,
            vec![(a.id, Box::new(pullback_a)), (b.id, Box::new(pullback_b))],
        )
    }

    /// Runs reverse-mode accumulation from `output`, which must be a `1 x 1`
    /// scalar (a loss).
    ///
    /// Each operation output's gradient is moved into its pullbacks, so only
    /// the leaves' gradients remain for [`Tape::grad`]. Pullbacks into
    /// constants, and into ops computed from constants alone, were never
    /// recorded and do not run.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not `1 x 1`.
    pub fn backward(&self, output: Var) {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[output.id].value.shape(),
            (1, 1),
            "backward must start from a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[output.id] = Some(Matrix::ones(1, 1));

        for id in (0..=output.id).rev() {
            let node = &nodes[id];
            if node.kind != Kind::Op {
                continue;
            }
            let Some(upstream) = grads[id].take() else {
                continue;
            };
            for (parent_id, pullback) in &node.parents {
                let contribution = pullback(&upstream);
                match &mut grads[*parent_id] {
                    Some(existing) => *existing += &contribution,
                    slot @ None => *slot = Some(contribution),
                }
            }
        }
        *self.grads.borrow_mut() = grads;
    }

    fn push(&self, node: Node) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        Var {
            id: nodes.len() - 1,
        }
    }

    pub(crate) fn with_value<R>(&self, var: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[var.id].value)
    }

    /// Records an operation's output. Pullbacks into parents that cannot
    /// reach a leaf are dropped here, so `backward` never runs them.
    pub(crate) fn push_op(&self, value: Matrix, mut parents: Vec<(usize, Pullback)>) -> Var {
        {
            let nodes = self.nodes.borrow();
            parents.retain(|(id, _)| nodes[*id].requires_grad());
        }
        self.push(Node {
            value,
            parents,
            kind: Kind::Op,
        })
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.nodes.borrow().len())
            .field("backward_ran", &!self.grads.borrow().is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_round_trip_values() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 2, 3.0));
        let b = tape.constant(Matrix::identity(2));
        assert_eq!(tape.value(a), Matrix::filled(2, 2, 3.0));
        assert_eq!(tape.value(b), Matrix::identity(2));
        assert_eq!(tape.len(), 2);
        assert_eq!(tape.shape(a), (2, 2));
    }

    #[test]
    fn backward_on_simple_chain() {
        // loss = sum(2 * a) => dloss/da = 2 everywhere
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 3, 1.5));
        let doubled = tape.scale(a, 2.0);
        let loss = tape.sum(doubled);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(2, 3, 2.0));
    }

    #[test]
    fn gradients_accumulate_across_fanout() {
        // loss = sum(a) + sum(a) => dloss/da = 2
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 4, 1.0));
        let s1 = tape.sum(a);
        let s2 = tape.sum(a);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 4, 2.0));
    }

    #[test]
    fn constants_do_not_block_gradient_flow() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 2, 2.0));
        let c = tape.constant(Matrix::filled(1, 2, 5.0));
        let prod = tape.hadamard(a, c);
        let loss = tape.sum(prod);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 2, 5.0));
        // Constant gradient is defined as zeros.
        assert_eq!(tape.grad(c), Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 2, 1.0));
        tape.backward(a);
    }

    #[test]
    #[should_panic(expected = "before Tape::backward")]
    fn grad_before_backward_panics() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 1, 1.0));
        let _ = tape.grad(a);
    }

    #[test]
    #[should_panic(expected = "interior node")]
    fn grad_of_an_interior_node_panics() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 2, 1.0));
        let doubled = tape.scale(a, 2.0);
        let loss = tape.sum(doubled);
        tape.backward(loss);
        let _ = tape.grad(doubled);
    }

    #[test]
    fn pullbacks_into_constants_never_run() {
        let tape = Tape::new();
        let c = tape.constant(Matrix::filled(1, 1, 2.0));
        let from_constant = tape.custom_unary(c, Matrix::filled(1, 1, 4.0), |_| {
            panic!("pullback into a constant ran")
        });
        // An op computed from constants alone cannot reach a leaf either.
        let derived = tape.scale(from_constant, 3.0);
        let a = tape.leaf(Matrix::filled(1, 1, 1.5));
        let loss = tape.custom_binary(
            a,
            derived,
            Matrix::filled(1, 1, 18.0),
            |up| up.scale(12.0),
            |_| panic!("pullback into a constant-only op ran"),
        );
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 1, 12.0));
        assert_eq!(tape.grad(c), Matrix::zeros(1, 1));
    }

    #[test]
    fn leaves_keep_their_gradients_across_grad_calls() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 3, 1.0));
        let unused = tape.leaf(Matrix::filled(2, 2, 1.0));
        let loss = tape.sum(tape.scale(a, 4.0));
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 3, 4.0));
        assert_eq!(tape.grad(a), Matrix::filled(1, 3, 4.0));
        // A leaf the loss does not depend on has a zero gradient.
        assert_eq!(tape.grad(unused), Matrix::zeros(2, 2));
    }

    #[test]
    fn custom_unary_op_backpropagates() {
        // y = x^3, dy/dx = 3x^2
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0));
        let x_val = tape.value(x);
        let y = tape.custom_unary(x, x_val.map(|v| v * v * v), move |up| {
            up.hadamard(&x_val.map(|v| 3.0 * v * v))
        });
        tape.backward(y);
        assert!((tape.grad(x)[(0, 0)] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn debug_format_mentions_node_count() {
        let tape = Tape::new();
        tape.leaf(Matrix::zeros(1, 1));
        assert!(format!("{tape:?}").contains("nodes"));
    }
}
