package cfg

// ReversePostorder exposes reversePostorder to the order tests.
var ReversePostorder = reversePostorder
