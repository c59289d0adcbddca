module netagg/benchmark

go 1.22

require netagg v0.0.0

replace netagg => ../
