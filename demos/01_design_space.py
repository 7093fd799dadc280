"""Walk through the chain-structured design space.

Architectures are built one layer at a time from a fixed action catalog.
Every action is a layer template; applying one resolves the template against
the current output shape, so illegal combinations (kernels larger than the
feature map, chains past the depth cap) simply never appear in the legal set.
"""
from shapenas import (ActionCatalog, CandidateNetwork, LayerTemplate, grow,
                      legal_actions)

catalog = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=5, stride=1, padding=2, channels=16),
    LayerTemplate("pool", kernel_size=2, stride=2),
    LayerTemplate("dense", channels=32),
), max_depth=5)

net = CandidateNetwork(input_shape=(3, 16, 16))
print(f"start: shape {net.output_shape}, depth {net.depth}")

for step, choice in enumerate([0, 2, 1, 2, 2]):
    legal = legal_actions(net, catalog)
    print(f"\nstep {step}: legal actions {legal}")
    template = catalog.actions[choice]
    net = grow(net, catalog, choice)
    c, h, w = net.output_shape
    print(f"  applied {template.block_kind} "
          f"(k={template.kernel_size}, s={template.stride}) "
          f"-> shape {net.output_shape}, output volume {c * h * w}")

# The depth cap has been reached: the legal set is empty and the chain is
# complete. Shape constraints prune the same way — a 2x2 pool would already
# be illegal on a 1x1 map.
print(f"\nfinal legal actions at depth {net.depth}: "
      f"{legal_actions(net, catalog)}")
