module probgraph/bench

go 1.24

require probgraph v0.0.0

replace probgraph => ../
