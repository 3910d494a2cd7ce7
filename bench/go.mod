module gentrius/bench

go 1.22

require gentrius v0.0.0

replace gentrius => ../
