module leaftl/bench

go 1.22

require leaftl v0.0.0

replace leaftl => ../
