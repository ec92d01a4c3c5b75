module prever/benchmark

go 1.22

require prever v0.0.0

replace prever => ../
