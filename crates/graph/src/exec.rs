//! Deterministic graph executor: per-node interpreter runs through
//! explicit edge buffers.
//!
//! Nodes execute one at a time in canonical topological order
//! (`Composed::order`); each node's inputs are gathered from the external
//! input map (mangled composed-program names) and from the edge buffers
//! its producers filled.

use crate::compose::Composed;
use crate::graph::KernelGraph;
use perfdojo_interp::{execute, Tensor};
use std::collections::{BTreeMap, HashMap};

/// Result of one graph execution.
#[derive(Clone, Debug)]
pub struct GraphRun {
    /// Every produced array (edge buffers included), keyed by the mangled
    /// composed-program name. BTreeMap for deterministic iteration.
    pub env: BTreeMap<String, Tensor>,
    /// External outputs only (mangled names) — directly comparable to the
    /// composed program's interpreter outputs.
    pub outputs: BTreeMap<String, Tensor>,
}

/// Execute `g` on `inputs` (keyed by the *mangled* external input names of
/// `composed`), one node at a time in `composed.order`.
pub fn execute_graph(
    g: &KernelGraph,
    composed: &Composed,
    inputs: &HashMap<String, Tensor>,
) -> Result<GraphRun, String> {
    let mut pos = vec![0usize; g.nodes().len()];
    for (p, &i) in composed.order.iter().enumerate() {
        pos[i] = p;
    }

    let mut env: BTreeMap<String, Tensor> = BTreeMap::new();
    for &i in &composed.order {
        let node = &g.nodes()[i];
        let mut node_inputs = HashMap::new();
        for input in &node.program.inputs {
            let fed = g.edges().iter().find(|e| e.to == i && e.to_array == *input);
            let tensor = match fed {
                Some(e) => {
                    let key = format!("n{}_{}", pos[e.from], e.from_array);
                    env.get(&key)
                        .cloned()
                        .ok_or_else(|| format!("edge buffer {key} not yet produced"))
                }
                None => {
                    let key = format!("n{}_{input}", pos[i]);
                    inputs.get(&key).cloned().ok_or_else(|| format!("missing external input {key}"))
                }
            }?;
            node_inputs.insert(input.clone(), tensor);
        }
        let outs = execute(&node.program, &node_inputs)
            .map_err(|e| format!("node {} ({}): {e:?}", node.name, node.label))?;
        // keep outputs only: temps of the node are not graph-visible
        for (name, tensor) in outs {
            if node.program.outputs.contains(&name) {
                env.insert(format!("n{}_{name}", pos[i]), tensor);
            }
        }
    }

    let mut outputs = BTreeMap::new();
    for (_, _, mangled) in &composed.outputs {
        let t = env
            .get(mangled)
            .cloned()
            .ok_or_else(|| format!("external output {mangled} was not produced"))?;
        outputs.insert(mangled.clone(), t);
    }
    Ok(GraphRun { env, outputs })
}
